package polynomial

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestSetAsSource: an in-memory Set must present itself as a single
// resident shard with consistent accounting.
func TestSetAsSource(t *testing.T) {
	set := buildTestSet(12, 5)
	var src SetSource = set
	if src.Namespace() != set.Names {
		t.Fatal("Namespace differs from the Names field")
	}
	if src.Len() != 12 || src.Size() != 60 {
		t.Fatalf("len/size: %d/%d", src.Len(), src.Size())
	}
	if src.ResidentMonomials() != 60 || src.PeakResidentMonomials() != 60 {
		t.Fatalf("residency: %d/%d, want fully resident",
			src.ResidentMonomials(), src.PeakResidentMonomials())
	}
	shards := 0
	err := src.ForEachShard(func(i, firstPoly int, s *Set) error {
		shards++
		if i != 0 || firstPoly != 0 || s != set {
			return fmt.Errorf("shard %d firstPoly %d, want the set itself at 0/0", i, firstPoly)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if shards != 1 {
		t.Fatalf("%d shards, want 1", shards)
	}
	boom := errors.New("stop")
	if err := src.ForEachShard(func(int, int, *Set) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("callback error not propagated: %v", err)
	}
}

// TestCopySourceSink: Copy must stream identically between every
// source/sink pairing: Set→Set, Set→ShardBuilder, ShardedSet→Set.
func TestCopySourceSink(t *testing.T) {
	set := buildTestSet(30, 7)

	assertEq := func(name string, got *Set) {
		t.Helper()
		if got.Len() != set.Len() {
			t.Fatalf("%s: %d polynomials, want %d", name, got.Len(), set.Len())
		}
		for i := range set.Keys {
			if got.Keys[i] != set.Keys[i] || !Equal(got.Polys[i], set.Polys[i]) {
				t.Fatalf("%s: polynomial %d differs", name, i)
			}
		}
	}

	direct := NewSet(set.Names)
	if err := Copy(set, direct); err != nil {
		t.Fatal(err)
	}
	assertEq("set→set", direct)

	b := NewShardBuilder(set.Names, ShardOptions{MaxResidentMonomials: 40, SpillDir: t.TempDir()})
	if err := Copy(set, b); err != nil {
		t.Fatal(err)
	}
	ss, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if ss.SpilledShards() == 0 {
		t.Fatal("copy into a budgeted builder did not spill")
	}
	back := NewSet(set.Names)
	if err := Copy(ss, back); err != nil {
		t.Fatal(err)
	}
	assertEq("sharded→set", back)
}

// TestShardedUsedVarsCache: the merged UsedVars result must be cached,
// invalidated when the set gains shards, and insulated from caller
// mutation.
func TestShardedUsedVarsCache(t *testing.T) {
	names := NewNames()
	b := NewShardBuilder(names, ShardOptions{TargetMonomials: 4})
	for p := 0; p < 4; p++ {
		if err := b.Add(fmt.Sprintf("k%d", p), MustParse(fmt.Sprintf("2*a%d + b", p), names)); err != nil {
			t.Fatal(err)
		}
	}
	// Peek mid-build through the builder's set: the cache must not freeze
	// the merge before the remaining shards seal.
	if got := b.ss.UsedVars(); len(got) == 0 {
		t.Fatal("mid-build UsedVars empty")
	}
	for p := 4; p < 8; p++ {
		if err := b.Add(fmt.Sprintf("k%d", p), MustParse(fmt.Sprintf("2*a%d + b", p), names)); err != nil {
			t.Fatal(err)
		}
	}
	ss, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()

	want := 9 // a0..a7 and b
	got := ss.UsedVars()
	if len(got) != want {
		t.Fatalf("UsedVars: %d vars, want %d", len(got), want)
	}
	if ss.NumVars() != want {
		t.Fatalf("NumVars: %d, want %d", ss.NumVars(), want)
	}
	// Mutating the returned slice must not corrupt later calls.
	for i := range got {
		got[i] = Var(-1)
	}
	again := ss.UsedVars()
	if len(again) != want || again[0] == Var(-1) {
		t.Fatalf("cache corrupted by caller mutation: %v", again[:2])
	}
	for i := 1; i < len(again); i++ {
		if again[i-1] >= again[i] {
			t.Fatalf("UsedVars not ascending at %d", i)
		}
	}
}

// countFilesUnder returns every regular file below dir.
func countFilesUnder(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			files = append(files, path)
		}
		return nil
	})
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return files
}

// failingPoly builds one polynomial with n monomials.
func failingPoly(names *Names, key int, mons int) Polynomial {
	var b Builder
	for m := 0; m < mons; m++ {
		b.Add(float64(key*mons+m+1), T(names.Var(fmt.Sprintf("v%d", m))))
	}
	return b.Polynomial()
}

// TestShardBuilderSpillErrorPathsLeakNothing: every spill-failure path —
// during Add, during Finish's final seal, and an abandoned builder — must
// leave zero files under the spill root once Discard (or the finished
// set's Close) runs.
func TestShardBuilderSpillErrorPathsLeakNothing(t *testing.T) {
	inject := errors.New("injected spill failure")

	// Fail the Nth spill write, for every N the build would perform.
	for failAt := 1; failAt <= 3; failAt++ {
		dir := t.TempDir()
		writes := 0
		testSpillWriteErr = func() error {
			writes++
			if writes == failAt {
				return inject
			}
			return nil
		}
		names := NewNames()
		b := NewShardBuilder(names, ShardOptions{TargetMonomials: 4, MaxResidentMonomials: 8, SpillDir: dir})
		var addErr error
		for p := 0; p < 20 && addErr == nil; p++ {
			addErr = b.Add(fmt.Sprintf("k%d", p), failingPoly(names, p, 4))
		}
		var finErr error
		if addErr == nil {
			var ss *ShardedSet
			ss, finErr = b.Finish()
			if finErr == nil {
				ss.Close()
			}
		}
		b.Discard() // no-op after a successful Finish, cleanup otherwise
		testSpillWriteErr = nil
		if addErr == nil && finErr == nil {
			t.Fatalf("failAt=%d: no error surfaced (%d spill writes)", failAt, writes)
		}
		if err := errors.Join(addErr, finErr); !errors.Is(err, inject) {
			t.Fatalf("failAt=%d: got %v, want injected", failAt, err)
		}
		if left := countFilesUnder(t, dir); len(left) != 0 {
			t.Fatalf("failAt=%d: %d files leaked: %v", failAt, len(left), left)
		}
	}
}

// TestShardBuilderDiscardRemovesSpills: abandoning a partially built,
// already-spilled builder must remove its whole spill directory; Discard
// after Finish must NOT touch the finished set's files.
func TestShardBuilderDiscardRemovesSpills(t *testing.T) {
	dir := t.TempDir()
	names := NewNames()
	b := NewShardBuilder(names, ShardOptions{TargetMonomials: 4, MaxResidentMonomials: 8, SpillDir: dir})
	for p := 0; p < 20; p++ {
		if err := b.Add(fmt.Sprintf("k%d", p), failingPoly(names, p, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if len(countFilesUnder(t, dir)) == 0 {
		t.Fatal("fixture did not spill")
	}
	b.Discard()
	if left := countFilesUnder(t, dir); len(left) != 0 {
		t.Fatalf("%d files leaked after Discard: %v", len(left), left)
	}
	if err := b.Add("late", Zero()); err == nil {
		t.Fatal("Add after Discard should error")
	}
	if _, err := b.Finish(); err == nil {
		t.Fatal("Finish after Discard should error")
	}

	// Finish hands ownership to the set: Discard must not remove its files.
	b2 := NewShardBuilder(names, ShardOptions{TargetMonomials: 4, MaxResidentMonomials: 8, SpillDir: dir})
	for p := 0; p < 20; p++ {
		if err := b2.Add(fmt.Sprintf("k%d", p), failingPoly(names, p, 4)); err != nil {
			t.Fatal(err)
		}
	}
	ss, err := b2.Finish()
	if err != nil {
		t.Fatal(err)
	}
	b2.Discard()
	if len(countFilesUnder(t, dir)) == 0 {
		t.Fatal("Discard after Finish removed the finished set's spill files")
	}
	back, err := ss.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 20 {
		t.Fatalf("materialized %d polynomials, want 20", back.Len())
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	if left := countFilesUnder(t, dir); len(left) != 0 {
		t.Fatalf("%d files leaked after Close: %v", len(left), left)
	}
}

// TestShardBuilderSpillDirCreateError: an unusable spill root must fail
// the build loudly and leave nothing behind.
func TestShardBuilderSpillDirCreateError(t *testing.T) {
	root := t.TempDir()
	blocked := filepath.Join(root, "not-a-dir")
	if err := os.WriteFile(blocked, []byte("x"), 0o600); err != nil {
		t.Fatal(err)
	}
	names := NewNames()
	b := NewShardBuilder(names, ShardOptions{TargetMonomials: 4, MaxResidentMonomials: 8, SpillDir: blocked})
	var addErr error
	for p := 0; p < 20 && addErr == nil; p++ {
		addErr = b.Add(fmt.Sprintf("k%d", p), failingPoly(names, p, 4))
	}
	if addErr == nil {
		t.Fatal("build under an unusable spill root should fail")
	}
	b.Discard()
	if got := countFilesUnder(t, root); len(got) != 1 || got[0] != blocked {
		t.Fatalf("unexpected files: %v", got)
	}
}
