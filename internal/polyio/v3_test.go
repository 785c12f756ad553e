package polyio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/core"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/valuation"
)

// encodeV3 shards the set and writes it as a v3 stream.
func encodeV3(tb testing.TB, set *polynomial.Set, compress bool) []byte {
	tb.Helper()
	ss, err := polynomial.BuildSharded(set, polynomial.ShardOptions{TargetMonomials: 17})
	if err != nil {
		tb.Fatal(err)
	}
	defer ss.Close()
	var buf bytes.Buffer
	if err := WriteSetStreamV3(&buf, ss, V3Options{Compress: compress}); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// oracleSet builds a random set whose monomials each touch one variable,
// so an abstraction tree over all the variables is valid for Compress.
func oracleSet(seed int64, polys int) *polynomial.Set {
	r := rand.New(rand.NewSource(seed))
	names := polynomial.NewNames()
	set := polynomial.NewSet(names)
	vars := make([]polynomial.Var, 24)
	for i := range vars {
		vars[i] = names.Var(fmt.Sprintf("v%d", i))
	}
	for g := 0; g < polys; g++ {
		var b polynomial.Builder
		for m := 0; m < 1+r.Intn(6); m++ {
			b.Add(r.NormFloat64()*10, polynomial.TExp(vars[r.Intn(len(vars))], int32(1+r.Intn(3))))
		}
		set.Add(fmt.Sprintf("key#%d", g), b.Polynomial())
	}
	return set
}

// materializeIndexed decodes every shard sequentially into one set.
func materializeIndexed(ix *IndexedSet) (*polynomial.Set, error) {
	out := polynomial.NewSet(ix.Namespace())
	err := ix.ForEachShard(func(_, _ int, s *polynomial.Set) error {
		for i, k := range s.Keys {
			if err := out.Add(k, s.Polys[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func TestV3RoundTrip(t *testing.T) {
	set := randomSet(41, 60)
	for _, compress := range []bool{false, true} {
		name := "uncompressed"
		if compress {
			name = "compressed"
		}
		t.Run(name, func(t *testing.T) {
			data := encodeV3(t, set, compress)

			// Sequential reader path.
			back := materializeStream(t, data)
			if !setsEquivalent(set, back) {
				t.Fatal("v3 sequential round trip mismatch")
			}
			// Random-access path.
			ix, err := OpenIndexedSet(bytes.NewReader(data), int64(len(data)), nil)
			if err != nil {
				t.Fatal(err)
			}
			if ix.Len() != set.Len() || ix.Size() != set.Size() {
				t.Fatalf("footer totals %d/%d, set has %d/%d", ix.Len(), ix.Size(), set.Len(), set.Size())
			}
			back3, err := materializeIndexed(ix)
			if err != nil {
				t.Fatal(err)
			}
			if !setsEquivalent(set, back3) {
				t.Fatal("v3 indexed round trip mismatch")
			}
		})
	}
	// Compression must actually shrink this (very repetitive) stream.
	un := encodeV3(t, set, false)
	co := encodeV3(t, set, true)
	if len(co) >= len(un) {
		t.Fatalf("compressed stream (%d bytes) not smaller than uncompressed (%d)", len(co), len(un))
	}
}

// TestV3CoefExactness: every float64 bit pattern must round-trip — the
// integer fast path may never swallow -0, NaN payloads, fractions, or
// integers too big for the zigzag window.
func TestV3CoefExactness(t *testing.T) {
	names := polynomial.NewNames()
	set := polynomial.NewSet(names)
	x := names.Var("x")
	coefs := []float64{
		1, -1, 2.5, -2.5, math.Inf(1), math.Inf(-1),
		math.NaN(), 1 << 51, -(1 << 51), 1 << 52, math.MaxFloat64, math.SmallestNonzeroFloat64,
		208.8, 1e-300,
	}
	for i, c := range coefs {
		var b polynomial.Builder
		b.Add(c, polynomial.TExp(x, int32(i+1)))
		set.Add(fmt.Sprintf("k%d", i), b.Polynomial())
	}
	back := materializeStream(t, encodeV3(t, set, true))
	for i := range coefs {
		if len(set.Polys[i].Mons) == 0 {
			continue // the Builder itself dropped the monomial
		}
		got := back.Polys[i].Mons[0].Coef
		if math.Float64bits(got) != math.Float64bits(coefs[i]) {
			t.Errorf("coef %v round-tripped as %v (bits %016x != %016x)",
				coefs[i], got, math.Float64bits(coefs[i]), math.Float64bits(got))
		}
	}
}

// TestV3CrossVersionOracle is the cross-version property test: the same
// set as a v1 file, a v2 stream (both written by the last commit that
// could, testdata/legacy) and a fresh v3 stream (compressed and not) must
// be bit-identical under polynomial.Equal once decoded into one namespace;
// across random sets the v3 encoding must be a fixed point of read→write,
// and the decoded sources must produce identical Compress and EvalBatch
// answers at Workers ∈ {1,2,8}.
func TestV3CrossVersionOracle(t *testing.T) {
	legacy := map[string][]byte{}
	for _, fx := range loadFixtures(t, "legacy") {
		legacy[fx.name] = fx.data
	}
	{
		set := randomSet(7, 50) // what v1-exponents and v2-exponents hold
		// Decode every version into ONE namespace: interning is
		// first-appearance order for all of them, so the Var ids — and with
		// them every polynomial — must be bit-identical.
		common := polynomial.NewNames()
		decode := func(data []byte) *polynomial.Set {
			s, _, err := ReadSet(bytes.NewReader(data), common)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		fromV1 := decode(legacy["v1-exponents"])
		if !setsEquivalent(set, fromV1) {
			t.Fatal("fixture v1-exponents is not randomSet(7, 50)")
		}
		v3c := encodeV3(t, set, true)
		sets := map[string]*polynomial.Set{
			"v2":  decode(legacy["v2-exponents"]),
			"v3u": decode(encodeV3(t, set, false)),
			"v3c": decode(v3c),
		}
		ixc, err := OpenIndexedSet(bytes.NewReader(v3c), int64(len(v3c)), common)
		if err != nil {
			t.Fatal(err)
		}
		sets["v3c/indexed"], err = materializeIndexed(ixc)
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range sets {
			if got.Len() != fromV1.Len() {
				t.Fatalf("%s decoded %d polynomials, v1 %d", name, got.Len(), fromV1.Len())
			}
			for i := range fromV1.Keys {
				if fromV1.Keys[i] != got.Keys[i] || !polynomial.Equal(fromV1.Polys[i], got.Polys[i]) {
					t.Fatalf("%s decodes polynomial %d differently from v1", name, i)
				}
			}
		}
	}
	for seed := int64(0); seed < 12; seed++ {
		v3c := encodeV3(t, randomSet(seed, 2+int(seed)*4), true)

		// v3 fixed point: after one decode into a FRESH namespace the ids
		// are in cross-shard first-appearance order — the order the encoder
		// itself emits — so read→write→read is bit-identical from then on.
		wA := encodeV3(t, materializeStream(t, v3c), true)
		wB := encodeV3(t, materializeStream(t, wA), true)
		if !bytes.Equal(wA, wB) {
			t.Fatalf("seed %d: v3 read→write→read is not bit-identical", seed)
		}
	}

	// Solver oracle on a compression-friendly set (one variable per
	// monomial, so a single abstraction tree covers every monomial): the
	// in-memory set, the indexed compressed stream and the indexed
	// uncompressed stream must give identical Compress and EvalBatch
	// answers at every worker count.
	set := oracleSet(97, 80)
	common := polynomial.NewNames()
	base, _, err := ReadSet(bytes.NewReader(encodeV3(t, set, false)), common)
	if err != nil {
		t.Fatal(err)
	}
	v3u := encodeV3(t, base, false)
	v3c := encodeV3(t, base, true)
	ixu, err := OpenIndexedSet(bytes.NewReader(v3u), int64(len(v3u)), common)
	if err != nil {
		t.Fatal(err)
	}
	ixc, err := OpenIndexedSet(bytes.NewReader(v3c), int64(len(v3c)), common)
	if err != nil {
		t.Fatal(err)
	}

	// A two-group tree over the set's variables (tree node names intern
	// extra Vars, so build it once, after all decodes).
	tree := abstraction.NewTree("T", common)
	g0 := tree.MustAddChild(tree.Root(), "g0")
	g1 := tree.MustAddChild(tree.Root(), "g1")
	for i, v := range base.UsedVars() {
		parent := g0
		if i%2 == 1 {
			parent = g1
		}
		if _, err := tree.AddChild(parent, common.Name(v)); err != nil {
			t.Fatal(err)
		}
	}
	bound := base.Size()
	assignments := make([]*valuation.Assignment, 7)
	for i := range assignments {
		a := valuation.New(common)
		used := base.UsedVars()
		a.SetVar(used[i%len(used)], 0.25*float64(i+1))
		assignments[i] = a
	}

	wantRes, err := core.CompressSource(base, abstraction.Forest{tree}, bound, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantRows, err := valuation.EvalBatchSource(base, assignments, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 8} {
		for name, src := range map[string]polynomial.SetSource{"set": base, "v3u": ixu, "v3c": ixc} {
			res, err := core.CompressSource(src, abstraction.Forest{tree}, bound, w)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			if res.Size != wantRes.Size || res.NumMeta != wantRes.NumMeta ||
				res.UsedMeta != wantRes.UsedMeta || len(res.Cuts) != len(wantRes.Cuts) ||
				!res.Cuts[0].Equal(wantRes.Cuts[0]) {
				t.Fatalf("%s workers=%d: Compress differs from the in-memory baseline", name, w)
			}
			rows, err := valuation.EvalBatchSource(src, assignments, w)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			if len(rows) != len(wantRows) {
				t.Fatalf("%s workers=%d: %d result rows, want %d", name, w, len(rows), len(wantRows))
			}
			for r := range rows {
				for c := range rows[r] {
					if math.Float64bits(rows[r][c]) != math.Float64bits(wantRows[r][c]) {
						t.Fatalf("%s workers=%d: EvalBatch row %d col %d differs", name, w, r, c)
					}
				}
			}
		}
	}
}

// TestV3OutOfOrderDecode decodes shards via the footer index in reverse
// and random permutation order — every schedule must reproduce the same
// shards — and checks ForEachShardParallel still delivers to the sink
// strictly in shard order at every worker count. Run under -race this is
// also the concurrent-decode sweep.
func TestV3OutOfOrderDecode(t *testing.T) {
	set := randomSet(53, 70)
	data := encodeV3(t, set, true)
	ix, err := OpenIndexedSet(bytes.NewReader(data), int64(len(data)), nil)
	if err != nil {
		t.Fatal(err)
	}
	n := ix.NumShards()
	if n < 3 {
		t.Fatalf("fixture: want several shards, got %d", n)
	}
	want := make([]*polynomial.Set, n)
	for i := 0; i < n; i++ {
		if want[i], err = ix.DecodeShard(i); err != nil {
			t.Fatal(err)
		}
	}
	perms := [][]int{make([]int, n), rand.New(rand.NewSource(3)).Perm(n)}
	for i := range perms[0] {
		perms[0][i] = n - 1 - i // reverse
	}
	for _, perm := range perms {
		for _, i := range perm {
			got, err := ix.DecodeShard(i)
			if err != nil {
				t.Fatal(err)
			}
			if !setsEquivalent(want[i], got) {
				t.Fatalf("shard %d decodes differently out of order", i)
			}
		}
	}

	for _, w := range []int{1, 2, 8} {
		next := 0
		out := polynomial.NewSet(ix.Namespace())
		err := ix.ForEachShardParallel(w, func(i, firstPoly int, s *polynomial.Set) error {
			if i != next {
				return fmt.Errorf("shard %d delivered, expected %d", i, next)
			}
			if wantFirst, _ := ix.ShardRange(i); firstPoly != wantFirst {
				return fmt.Errorf("shard %d delivered firstPoly %d, footer says %d", i, firstPoly, wantFirst)
			}
			next++
			for k, key := range s.Keys {
				if err := out.Add(key, s.Polys[k]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if next != n {
			t.Fatalf("workers=%d: delivered %d of %d shards", w, next, n)
		}
		if !setsEquivalent(set, out) {
			t.Fatalf("workers=%d: parallel decode differs from the input", w)
		}
	}
}

// TestV3ConcurrentPasses: an IndexedSet advertises ConcurrentPasses, so
// independent ForEachShardParallel passes must be able to run at the same
// time (under -race this proves the decode path shares no mutable state).
func TestV3ConcurrentPasses(t *testing.T) {
	set := randomSet(59, 60)
	data := encodeV3(t, set, true)
	ix, err := OpenIndexedSet(bytes.NewReader(data), int64(len(data)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ix.ConcurrentPasses() {
		t.Fatal("IndexedSet must advertise concurrent passes")
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	sizes := make([]int, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = ix.ForEachShardParallel(4, func(_, _ int, s *polynomial.Set) error {
				sizes[g] += s.Size()
				return nil
			})
		}(g)
	}
	wg.Wait()
	for g := range errs {
		if errs[g] != nil {
			t.Fatalf("pass %d: %v", g, errs[g])
		}
		if sizes[g] != set.Size() {
			t.Fatalf("pass %d saw %d monomials, want %d", g, sizes[g], set.Size())
		}
	}
}

// TestV3DecodeFailpoint: one failing shard must cancel the in-flight
// parallel decode — strictly fewer shards decode than exist — surface as
// that exact error, and leave the stream on disk untouched; clearing the
// failpoint must make the same IndexedSet fully readable again.
func TestV3DecodeFailpoint(t *testing.T) {
	set := randomSet(61, 160)
	ss, err := polynomial.BuildSharded(set, polynomial.ShardOptions{TargetMonomials: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	path := filepath.Join(t.TempDir(), "fail.v3")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteSetStreamV3(f, ss, V3Options{Compress: true}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := OpenIndexedFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	n := ix.NumShards()
	if n < 16 {
		t.Fatalf("fixture: want many shards, got %d", n)
	}

	boom := errors.New("injected decode failure")
	var mu sync.Mutex
	decodes := 0
	testDecodeErr = func(shard int) error {
		mu.Lock()
		decodes++
		mu.Unlock()
		if shard == 2 {
			return boom
		}
		return nil
	}
	t.Cleanup(func() { testDecodeErr = nil })

	err = ix.ForEachShardParallel(4, func(_, _ int, _ *polynomial.Set) error { return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("parallel decode returned %v, want the injected failure", err)
	}
	mu.Lock()
	got := decodes
	mu.Unlock()
	if got >= n {
		t.Fatalf("failure at shard 2 did not cancel in-flight decodes: %d of %d shards decoded", got, n)
	}
	if ix.ResidentMonomials() != 0 {
		t.Fatalf("failed pass leaked %d resident monomials", ix.ResidentMonomials())
	}
	// Nothing unlinked or rewritten.
	after, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stream file gone after failed decode: %v", err)
	}
	if after.Size() != before.Size() {
		t.Fatalf("stream file changed size: %d -> %d", before.Size(), after.Size())
	}

	testDecodeErr = nil
	back, err := materializeIndexed(ix)
	if err != nil {
		t.Fatalf("retry after clearing the failpoint: %v", err)
	}
	if !setsEquivalent(set, back) {
		t.Fatal("retry decoded a different set")
	}
}

// TestV3DecodeFailpointSweep fails the decode of every shard in turn, under
// each kind of pass — *Set, packed, parallel. Each failure must surface as
// the injected error at that shard (the sequential passes having delivered
// exactly the shards before it), close every section it opened, leave no
// decoded monomial counted as resident and the file as it was; the next
// pass over the same IndexedSet must answer bit-identically.
func TestV3DecodeFailpointSweep(t *testing.T) {
	set := randomSet(71, 60)
	ss, err := polynomial.BuildSharded(set, polynomial.ShardOptions{TargetMonomials: 12})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	path := filepath.Join(t.TempDir(), "sweep.v3")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteSetStreamV3(f, ss, V3Options{Compress: true}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := OpenIndexedFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if ix.NumShards() < 6 {
		t.Fatalf("fixture: want several shards, got %d", ix.NumShards())
	}

	var mu sync.Mutex
	sections := 0
	testSectionHook = func(_ int, delta int) {
		mu.Lock()
		sections += delta
		mu.Unlock()
	}
	boom := errors.New("injected decode failure")
	t.Cleanup(func() { testDecodeErr, testSectionHook = nil, nil })

	passes := map[string]func(fn func(i int) error) error{
		"set": func(fn func(i int) error) error {
			return ix.ForEachShard(func(i, _ int, _ *polynomial.Set) error { return fn(i) })
		},
		"packed": func(fn func(i int) error) error {
			return ix.ForEachPackedShard(func(i, _ int, _ *polynomial.PackedSet) error { return fn(i) })
		},
		"parallel": func(fn func(i int) error) error {
			return ix.ForEachShardParallel(3, func(i, _ int, _ *polynomial.Set) error { return fn(i) })
		},
	}
	for name, pass := range passes {
		for failAt := 0; failAt < ix.NumShards(); failAt++ {
			testDecodeErr = func(shard int) error {
				if shard == failAt {
					return boom
				}
				return nil
			}
			delivered := 0
			err := pass(func(i int) error {
				if i != delivered || i >= failAt {
					t.Errorf("%s, shard %d failing: shard %d delivered after %d others", name, failAt, i, delivered)
				}
				delivered++
				return nil
			})
			if !errors.Is(err, boom) {
				t.Fatalf("%s, shard %d failing: got %v", name, failAt, err)
			}
			if name != "parallel" && delivered != failAt {
				t.Fatalf("%s, shard %d failing: %d shards delivered", name, failAt, delivered)
			}
			mu.Lock()
			open := sections
			mu.Unlock()
			if open != 0 || ix.ResidentMonomials() != 0 {
				t.Fatalf("%s, shard %d failing: %d sections left open, %d monomials left resident", name, failAt, open, ix.ResidentMonomials())
			}
			testDecodeErr = nil
			back, err := materializeIndexed(ix)
			if err != nil {
				t.Fatalf("%s, shard %d failing: the next pass: %v", name, failAt, err)
			}
			if !setsEquivalent(set, back) {
				t.Fatalf("%s, shard %d failing: the next pass decoded a different set", name, failAt)
			}
		}
	}
	after, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(before, after) {
		t.Fatalf("the stream file changed under the failures (%v)", err)
	}
}

// TestV3SectionTracking: every shard section opened by a decode must be
// closed — on success, on decode errors, and on early stop — or pooled
// buffers leak. The hook observes opens (+1) and closes (-1).
func TestV3SectionTracking(t *testing.T) {
	set := randomSet(67, 90)
	data := encodeV3(t, set, true)

	var mu sync.Mutex
	net, opens := 0, 0
	testSectionHook = func(_ int, delta int) {
		mu.Lock()
		net += delta
		if delta > 0 {
			opens++
		}
		mu.Unlock()
	}
	t.Cleanup(func() { testSectionHook = nil })
	check := func(phase string, wantOpens bool) {
		mu.Lock()
		defer mu.Unlock()
		if net != 0 {
			t.Fatalf("%s: %d shard sections left open", phase, net)
		}
		if wantOpens && opens == 0 {
			t.Fatalf("%s: hook observed no opens (test is vacuous)", phase)
		}
		opens = 0
	}

	ix, err := OpenIndexedSet(bytes.NewReader(data), int64(len(data)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := materializeIndexed(ix); err != nil {
		t.Fatal(err)
	}
	check("sequential success", true)

	if err := ix.ForEachShardParallel(8, func(_, _ int, _ *polynomial.Set) error { return nil }); err != nil {
		t.Fatal(err)
	}
	check("parallel success", true)

	// Early stop: the consumer aborts after the first shard while decodes
	// for later shards are in flight.
	stop := errors.New("early stop")
	if err := ix.ForEachShardParallel(8, func(i, _ int, _ *polynomial.Set) error {
		return stop
	}); !errors.Is(err, stop) {
		t.Fatalf("early stop returned %v", err)
	}
	check("early stop", true)

	// Decode error: corrupt one shard's stored bytes so its checksum
	// fails; the failing section and all in-flight ones must still close.
	bad := append([]byte(nil), data...)
	ix2, err := OpenIndexedSet(bytes.NewReader(bad), int64(len(bad)), nil)
	if err != nil {
		t.Fatal(err)
	}
	bad[ix2.shards[1].payloadOff] ^= 0xff
	var cerr *ChecksumError
	if _, err := materializeIndexed(ix2); !errors.As(err, &cerr) {
		t.Fatalf("corrupted shard decoded with %v, want a ChecksumError", err)
	}
	check("checksum error", true)
	if err := ix2.ForEachShardParallel(8, func(_, _ int, _ *polynomial.Set) error { return nil }); !errors.As(err, &cerr) {
		t.Fatalf("parallel decode of corrupted shard: %v", err)
	}
	check("parallel checksum error", true)
}

// TestV3ResidencyBudget: with a residency budget set, a parallel pass
// keeps decoded-but-undelivered monomials within it (clamping all the way
// down to sequential when only one shard fits).
func TestV3ResidencyBudget(t *testing.T) {
	set := randomSet(71, 120)
	ss, err := polynomial.BuildSharded(set, polynomial.ShardOptions{TargetMonomials: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	var buf bytes.Buffer
	if err := WriteSetStreamV3(&buf, ss, V3Options{Compress: true}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	ix, err := OpenIndexedSet(bytes.NewReader(data), int64(len(data)), nil)
	if err != nil {
		t.Fatal(err)
	}
	maxShard := 0
	for i := 0; i < ix.NumShards(); i++ {
		if _, c := ix.ShardRange(i); c > 0 {
			// per-shard monomials via the footer
		}
		if m := int(ix.shards[i].mons); m > maxShard {
			maxShard = m
		}
	}
	budget := 3 * maxShard
	ix.SetResidencyBudget(budget)
	seen := 0
	if err := ix.ForEachShardParallel(8, func(_, _ int, s *polynomial.Set) error {
		seen += s.Size()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen != set.Size() {
		t.Fatalf("budgeted pass saw %d monomials, want %d", seen, set.Size())
	}
	if peak := ix.PeakResidentMonomials(); peak > budget {
		t.Fatalf("peak resident %d exceeds budget %d", peak, budget)
	}
}

// FuzzReadSetV3 is the v3 native-fuzzing entry point behind CI's
// fuzz-smoke step: arbitrary bytes must decode or fail cleanly through
// BOTH the sequential reader and the random-access IndexedSet; every
// failure on a v3-magic stream must be a typed error (CorruptError or
// ChecksumError), and whenever the sequential read succeeds the indexed
// read must succeed and agree — no panic, no silent short read.
func FuzzReadSetV3(f *testing.F) {
	set := randomSet(83, 12)
	for _, compress := range []bool{false, true} {
		ss, err := polynomial.BuildSharded(set, polynomial.ShardOptions{TargetMonomials: 9})
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteSetStreamV3(&buf, ss, V3Options{Compress: compress}); err != nil {
			f.Fatal(err)
		}
		ss.Close()
		valid := buf.Bytes()
		f.Add(append([]byte(nil), valid...))
		f.Add(append([]byte(nil), valid[:len(valid)/2]...)) // truncation mid-shard
		f.Add(append([]byte(nil), valid[:len(valid)-4]...)) // truncated trailer

		flagFlip := append([]byte(nil), valid...)
		flagFlip[len(v3Magic)+1] ^= v3FlagDeflate // flate flag flip on shard 0
		f.Add(flagFlip)

		payloadFlip := append([]byte(nil), valid...)
		payloadFlip[len(v3Magic)+6] ^= 0x40 // checksum mismatch
		f.Add(payloadFlip)

		footerFlip := append([]byte(nil), valid...)
		footerFlip[len(valid)-v3TrailerLen-3] ^= 0x08 // corrupted footer index
		f.Add(footerFlip)
	}
	f.Add([]byte{})
	f.Add(append([]byte(nil), v3Magic...))
	f.Fuzz(func(t *testing.T, data []byte) {
		isV3 := bytes.HasPrefix(data, v3Magic)
		requireTyped := func(path string, err error) {
			if !isV3 {
				return
			}
			var ce *CorruptError
			var se *ChecksumError
			if !errors.As(err, &ce) && !errors.As(err, &se) {
				t.Fatalf("%s failed with untyped error %T: %v", path, err, err)
			}
		}
		var seq *polynomial.Set
		var seqErr error
		if isV3 { // anything else is text or JSON to ReadSet
			seq, _, seqErr = ReadSet(bytes.NewReader(data), nil)
		} else {
			seqErr = errNotBinary
		}
		if seqErr != nil {
			requireTyped("sequential read", seqErr)
		}
		var indexed *polynomial.Set
		ix, ixErr := OpenIndexedSet(bytes.NewReader(data), int64(len(data)), nil)
		if ixErr == nil {
			indexed, ixErr = materializeIndexed(ix)
		}
		if ixErr != nil {
			requireTyped("indexed read", ixErr)
		}
		// The sequential reader verifies the footer against the observed
		// frames, so anything it accepts the indexed reader must accept —
		// and decode identically.
		if seqErr == nil {
			if ixErr != nil {
				t.Fatalf("sequential read succeeded but indexed read failed: %v", ixErr)
			}
			if !setsEquivalent(seq, indexed) {
				t.Fatal("sequential and indexed decodes disagree")
			}
			if err := WriteSet(io.Discard, seq, FormatBinary); err != nil {
				t.Fatalf("decoded set failed to re-encode: %v", err)
			}
		}
	})
}
