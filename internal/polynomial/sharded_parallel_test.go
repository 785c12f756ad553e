package polynomial

import (
	"errors"
	"fmt"
	"testing"
)

// passRecord is one fn invocation observed during a shard pass.
type passRecord struct {
	i         int
	firstPoly int
	keys      []string
	size      int
}

// recordPass runs one pass with the given runner and returns the sequence
// of fn invocations, copying everything fn may not retain.
func recordPass(t *testing.T, run func(fn func(i, firstPoly int, s *Set) error) error) []passRecord {
	t.Helper()
	var got []passRecord
	err := run(func(i, firstPoly int, s *Set) error {
		got = append(got, passRecord{
			i:         i,
			firstPoly: firstPoly,
			keys:      append([]string(nil), s.Keys...),
			size:      s.Size(),
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// The tests below ask for a multi-worker pass over a ShardedSet through
// ForEachShardN, the entry point every stage with a Workers knob uses. A
// ShardedSet loads its shards one at a time whatever is asked for (its
// parallel loader measured 0.98x of the sequential pass and was deleted),
// so what they pin is that the request is harmless: same shards, same
// order, budget honored, residency restored after an error.

// spilledSet builds a sharded set whose shards are mostly on disk: a
// tight budget during the build forces spilling, then the budget is
// widened (white-box) to what the pass runs under.
func spilledSet(t *testing.T, polys, buildBudget, runBudget int) *ShardedSet {
	t.Helper()
	set := buildTestSet(polys, 10)
	ss, err := BuildSharded(set, ShardOptions{
		TargetMonomials:      10,
		MaxResidentMonomials: buildBudget,
		SpillDir:             t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ss.Close() })
	if ss.NumShards() < 4 || ss.SpilledShards() < 4 {
		t.Fatalf("fixture too small: %d shards, %d spilled", ss.NumShards(), ss.SpilledShards())
	}
	ss.opts.MaxResidentMonomials = runBudget
	return ss
}

func TestShardedForEachShardParallelMatchesSequential(t *testing.T) {
	ss := spilledSet(t, 60, 30, 100)
	want := recordPass(t, ss.ForEachShard)
	if len(want) != ss.NumShards() {
		t.Fatalf("sequential pass saw %d shards, want %d", len(want), ss.NumShards())
	}
	for _, workers := range []int{1, 2, 8} {
		got := recordPass(t, func(fn func(i, firstPoly int, s *Set) error) error {
			return ForEachShardN(ss, workers, fn)
		})
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d shards, want %d", workers, len(got), len(want))
		}
		for k := range got {
			if got[k].i != k || got[k].i != want[k].i || got[k].firstPoly != want[k].firstPoly {
				t.Fatalf("workers=%d: shard %d delivered as (i=%d firstPoly=%d), want (i=%d firstPoly=%d)",
					workers, k, got[k].i, got[k].firstPoly, want[k].i, want[k].firstPoly)
			}
			if got[k].size != want[k].size || fmt.Sprint(got[k].keys) != fmt.Sprint(want[k].keys) {
				t.Fatalf("workers=%d: shard %d content differs from sequential pass", workers, k)
			}
		}
	}
}

func TestShardedForEachShardParallelHonorsBudget(t *testing.T) {
	budget := 100
	ss := spilledSet(t, 60, 30, budget)
	peak := 0
	err := ForEachShardN(ss, 8, func(_, _ int, _ *Set) error {
		if r := ss.ResidentMonomials(); r > peak {
			peak = r
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak == 0 {
		t.Fatal("pass loaded nothing?")
	}
	if peak > budget {
		t.Fatalf("peak residency %d exceeds budget %d", peak, budget)
	}
	if r := ss.ResidentMonomials(); r > budget {
		t.Fatalf("post-pass residency %d exceeds budget %d", r, budget)
	}
}

func TestShardedForEachShardParallelStopsOnError(t *testing.T) {
	ss := spilledSet(t, 60, 30, 100)
	resident0 := ss.ResidentMonomials()
	boom := errors.New("stop here")
	seen := 0
	err := ForEachShardN(ss, 4, func(i, _ int, _ *Set) error {
		seen++
		if i == 1 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if seen != 2 {
		t.Fatalf("fn ran %d times after an error on shard 1, want 2", seen)
	}
	if r := ss.ResidentMonomials(); r != resident0 {
		t.Fatalf("failed pass left residency %d, want the pre-pass %d", r, resident0)
	}
	// The set must remain fully usable after a failed pass.
	got := recordPass(t, func(fn func(i, firstPoly int, s *Set) error) error {
		return ForEachShardN(ss, 4, fn)
	})
	if len(got) != ss.NumShards() {
		t.Fatalf("retry saw %d shards, want %d", len(got), ss.NumShards())
	}
}

func TestShardedForEachShardParallelClosed(t *testing.T) {
	ss := spilledSet(t, 40, 30, 100)
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	err := ForEachShardN(ss, 4, func(_, _ int, _ *Set) error { return nil })
	if err == nil {
		t.Fatal("pass over a closed set succeeded")
	}
}
