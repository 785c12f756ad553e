package polynomial

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
)

// shardDigest renders a shard bit for bit: keys, coefficient bits, terms.
func shardDigest(s *Set) string {
	var b strings.Builder
	for i, key := range s.Keys {
		fmt.Fprintf(&b, "%q:", key)
		for _, m := range s.Polys[i].Mons {
			fmt.Fprintf(&b, "%x%v", math.Float64bits(m.Coef), m.Terms)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// passDigests runs both kinds of pass over ss and returns what each saw,
// shard by shard.
func passDigests(ss *ShardedSet) (viaSet, viaPacked []string, err error) {
	err = ss.ForEachShard(func(_, firstPoly int, s *Set) error {
		viaSet = append(viaSet, fmt.Sprint(firstPoly, "\n", shardDigest(s)))
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	err = ss.ForEachPackedShard(func(_, firstPoly int, ps *PackedSet) error {
		viaPacked = append(viaPacked, fmt.Sprint(firstPoly, "\n", shardDigest(ps.View())))
		return nil
	})
	return viaSet, viaPacked, err
}

// residentByShards is what ResidentMonomials must report between passes:
// the monomials of the resident shards, those that hold their slabs.
func residentByShards(ss *ShardedSet) int {
	n := 0
	for _, sh := range ss.shards {
		if sh.set != nil {
			n += sh.mons
		}
	}
	return n
}

// checkSpillFileWhole fails unless an open set's spill file is exactly as
// long as the records its successful spills wrote: a failed write must
// leave no partial record behind.
func checkSpillFileWhole(t *testing.T, ss *ShardedSet, when string) {
	t.Helper()
	if ss.spill == nil || ss.closed {
		return
	}
	st, err := ss.spill.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if written := ss.SpillIO().BytesWritten; st.Size() != written {
		t.Fatalf("%s: the spill file holds %d bytes, its whole records %d", when, st.Size(), written)
	}
}

// TestPackedPassMatchesSetPass: ForEachPackedShard hands out, shard for
// shard, what ForEachShard does — spilled shards decoded into the scratch,
// resident ones copied into it — with and without an exponent column.
func TestPackedPassMatchesSetPass(t *testing.T) {
	for _, set := range []*Set{buildTestSet(60, 10), telephonyShaped(12)} {
		for _, budget := range []int{0, set.Size() / 5} {
			ss, err := BuildSharded(set, ShardOptions{TargetMonomials: 40, MaxResidentMonomials: budget, SpillDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if (budget > 0) != (ss.SpilledShards() > 0) {
				t.Fatalf("budget %d: %d shards spilled", budget, ss.SpilledShards())
			}
			viaSet, viaPacked, err := passDigests(ss)
			if err != nil {
				t.Fatal(err)
			}
			if len(viaSet) != ss.NumShards() || fmt.Sprint(viaSet) != fmt.Sprint(viaPacked) {
				t.Fatalf("budget %d: the packed pass saw different shards than the *Set pass", budget)
			}
			if budget > 0 && ss.PeakResidentMonomials() > budget {
				t.Fatalf("peak residency %d exceeds budget %d", ss.PeakResidentMonomials(), budget)
			}
			if got, want := ss.ResidentMonomials(), residentByShards(ss); got != want {
				t.Fatalf("residency %d after the passes, the resident shards hold %d", got, want)
			}
			if err := ss.Close(); err != nil {
				t.Fatal(err)
			}
			if err := ss.ForEachPackedShard(func(_, _ int, _ *PackedSet) error { return nil }); err == nil {
				t.Fatal("packed pass over a closed set succeeded")
			}
		}
	}
}

// TestSpillFailpointSweep fails every I/O call of build → spill →
// ForEachShard → ForEachPackedShard → both passes again, once each, by its
// index among all spill writes and reads of a clean run. Each failure must
// surface as the injected error, leave the residency counter equal to what
// the resident shards hold (a failed load is never counted; a shard spilled
// to make room before the failure stays spilled), keep the spill file to
// its whole records (a failed write leaves its record's bytes past the end
// until spillShard truncates them), let the next pass over
// the same set answer bit-identically, and leak no file once the set is
// closed or the builder discarded. The first two passes still spill to
// make room; the second two only read, so a failure there must leave
// residency at its pre-pass value.
//
// Then the spill file itself is damaged — cut short mid-record, or a
// variable id overwritten past the namespace — and the next pass of either
// kind must fail with an error naming the shard, never a panic, a short
// read or a garbage slab, with residency where it was, and Close must
// still empty the spill directory.
func TestSpillFailpointSweep(t *testing.T) {
	set := buildTestSet(36, 8)
	inject := errors.New("injected spill I/O failure")
	t.Cleanup(func() { testSpillWriteErr, testSpillReadErr = nil, nil })

	// scenario runs the whole life of a set with call number failAt failing
	// (0: none) and returns how many calls it made.
	scenario := func(failAt int) (calls int) {
		dir := t.TempDir()
		failpoint := func() error {
			if calls++; calls == failAt {
				return inject
			}
			return nil
		}
		testSpillWriteErr, testSpillReadErr = failpoint, failpoint
		defer func() {
			if left := countFilesUnder(t, dir); len(left) != 0 {
				t.Fatalf("failAt=%d: %d files leaked: %v", failAt, len(left), left)
			}
		}()

		b := NewShardBuilder(set.Names, ShardOptions{TargetMonomials: 24, MaxResidentMonomials: 64, SpillDir: dir})
		defer b.Discard()
		err := b.AddSet(set)
		var ss *ShardedSet
		if err == nil {
			ss, err = b.Finish()
		}
		if err != nil {
			if !errors.Is(err, inject) {
				t.Fatalf("failAt=%d: build failed with %v", failAt, err)
			}
			checkSpillFileWhole(t, b.ss, fmt.Sprintf("failAt=%d: failed build", failAt))
			return calls
		}
		defer ss.Close()
		if ss.SpilledShards() < 3 {
			t.Fatalf("fixture spilled %d shards", ss.SpilledShards())
		}

		want, _, err := passDigests(mustBuildSharded(t, set, ShardOptions{TargetMonomials: 24}))
		if err != nil {
			t.Fatal(err)
		}
		failed := false
		for pass := 0; pass < 4; pass++ {
			before := ss.ResidentMonomials()
			if pass%2 == 0 {
				err = ss.ForEachShard(func(_, _ int, _ *Set) error { return nil })
			} else {
				err = ss.ForEachPackedShard(func(_, _ int, _ *PackedSet) error { return nil })
			}
			if err != nil {
				if !errors.Is(err, inject) {
					t.Fatalf("failAt=%d: pass failed with %v", failAt, err)
				}
				failed = true
				checkSpillFileWhole(t, ss, fmt.Sprintf("failAt=%d: failed pass", failAt))
				if pass >= 2 && ss.ResidentMonomials() != before {
					t.Fatalf("failAt=%d: a failed load moved residency %d -> %d", failAt, before, ss.ResidentMonomials())
				}
			}
			if got, want := ss.ResidentMonomials(), residentByShards(ss); got != want {
				t.Fatalf("failAt=%d: residency %d, the resident shards hold %d", failAt, got, want)
			}
		}
		if failAt > 0 && !failed {
			t.Fatalf("failAt=%d: no error surfaced in %d calls", failAt, calls)
		}
		// The same set, after the failure: both passes bit-identical to a
		// set that never spilled.
		testSpillWriteErr, testSpillReadErr = nil, nil
		viaSet, viaPacked, err := passDigests(ss)
		if err != nil {
			t.Fatalf("failAt=%d: pass after the failure: %v", failAt, err)
		}
		if fmt.Sprint(viaSet) != fmt.Sprint(want) || fmt.Sprint(viaPacked) != fmt.Sprint(want) {
			t.Fatalf("failAt=%d: the pass after the failure answers differently", failAt)
		}
		return calls
	}

	total := scenario(0)
	if total < 12 {
		t.Fatalf("a clean run made only %d spill I/O calls", total)
	}
	for failAt := 1; failAt <= total; failAt++ {
		scenario(failAt)
	}
	t.Logf("swept %d spill I/O calls", total)

	for _, damage := range []struct {
		name string
		do   func(f *os.File, sh *shard) error
		want string
	}{
		{"cut short mid-record", func(f *os.File, sh *shard) error { return f.Truncate(sh.off + sh.n/2) }, io.ErrUnexpectedEOF.Error()},
		{"variable past the namespace", func(f *os.File, sh *shard) error {
			vars := sh.off + int64(spillHeadLen+4*(sh.polys+1)+4*(sh.mons+1)+8*sh.mons)
			_, err := f.WriteAt(binary.NativeEndian.AppendUint32(nil, uint32(set.Names.Len())), vars)
			return err
		}, "corrupt spill variable"},
	} {
		dir := t.TempDir()
		ss, err := BuildSharded(set, ShardOptions{TargetMonomials: 24, MaxResidentMonomials: 64, SpillDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if err := ss.SpillAll(); err != nil {
			t.Fatal(err)
		}
		k := ss.NumShards() / 2
		if err := damage.do(ss.spill, ss.shards[k]); err != nil {
			t.Fatal(err)
		}
		for _, pass := range []func() error{
			func() error { return ss.ForEachShard(func(_, _ int, _ *Set) error { return nil }) },
			func() error { return ss.ForEachPackedShard(func(_, _ int, _ *PackedSet) error { return nil }) },
		} {
			err := pass()
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("loading shard %d: ", k)) || !strings.Contains(err.Error(), damage.want) {
				t.Fatalf("%s in shard %d: the pass returned %v", damage.name, k, err)
			}
			if got := ss.ResidentMonomials(); got != 0 {
				t.Fatalf("%s: %d monomials resident after the failed pass, 0 before", damage.name, got)
			}
		}
		if err := ss.Close(); err != nil {
			t.Fatal(err)
		}
		if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
			t.Fatalf("%s: %d entries left in the spill directory (%v)", damage.name, len(left), err)
		}
	}
}

// TestSpillAllFailpointSweep: SpillAll, for a budgeted set (some shards on
// disk already) and an unbudgeted one (none), with its k-th spill failing
// for every k. A failed SpillAll returns the injected error, may leave some
// shards spilled — residency says exactly which — and loses none: every
// pass answers as a set that never spilled does. Run again without the
// failure it finishes the job: nothing resident, every shard on disk, both
// kinds of pass still identical, one spill file in the set's own
// directory whatever the shard count, and nothing at all after Close.
func TestSpillAllFailpointSweep(t *testing.T) {
	set := buildTestSet(36, 8)
	inject := errors.New("injected spill write failure")
	t.Cleanup(func() { testSpillWriteErr = nil })
	want, _, err := passDigests(mustBuildSharded(t, set, ShardOptions{TargetMonomials: 24}))
	if err != nil {
		t.Fatal(err)
	}
	same := func(ss *ShardedSet, when string) {
		t.Helper()
		viaSet, viaPacked, err := passDigests(ss)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if fmt.Sprint(viaSet) != fmt.Sprint(want) || fmt.Sprint(viaPacked) != fmt.Sprint(want) {
			t.Fatalf("%s: a pass answers differently", when)
		}
		if got, want := ss.ResidentMonomials(), residentByShards(ss); got != want {
			t.Fatalf("%s: residency %d, the resident shards hold %d", when, got, want)
		}
	}
	for _, budget := range []int{120, 0} {
		// scenario fails SpillAll's failAt-th spill (0: none) and returns how
		// many spills a SpillAll of this set makes.
		scenario := func(failAt int) (spills int) {
			dir := t.TempDir()
			ss, err := BuildSharded(set, ShardOptions{TargetMonomials: 24, MaxResidentMonomials: budget, SpillDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				ss.Close()
				if left := countFilesUnder(t, dir); len(left) != 0 {
					t.Fatalf("budget %d failAt=%d: %d files leaked: %v", budget, failAt, len(left), left)
				}
			}()
			if (budget > 0) != (ss.SpilledShards() > 0) || ss.ResidentMonomials() == 0 {
				t.Fatalf("fixture: budget %d, %d shards spilled, %d monomials resident", budget, ss.SpilledShards(), ss.ResidentMonomials())
			}
			spilledBefore := ss.SpilledShards()
			testSpillWriteErr = func() error {
				if spills++; spills == failAt {
					return inject
				}
				return nil
			}
			err = ss.SpillAll()
			testSpillWriteErr = nil
			when := fmt.Sprintf("budget %d failAt=%d", budget, failAt)
			if failAt > 0 {
				if !errors.Is(err, inject) {
					t.Fatalf("%s: SpillAll returned %v", when, err)
				}
				if got := ss.SpilledShards(); got != spilledBefore+failAt-1 {
					t.Fatalf("%s: %d shards spilled, want the %d from before and %d more", when, got, spilledBefore, failAt-1)
				}
				checkSpillFileWhole(t, ss, when)
				same(ss, when+", after the failure")
				err = ss.SpillAll()
			}
			if err != nil {
				t.Fatalf("%s: SpillAll: %v", when, err)
			}
			if ss.ResidentMonomials() != 0 || ss.SpilledShards() != ss.NumShards() {
				t.Fatalf("%s: %d monomials resident, %d of %d shards spilled after SpillAll", when, ss.ResidentMonomials(), ss.SpilledShards(), ss.NumShards())
			}
			if files := countFilesUnder(t, dir); len(files) != 1 {
				t.Fatalf("%s: %d spill files for %d shards, want 1: %v", when, len(files), ss.NumShards(), files)
			}
			same(ss, when+", spilled")
			same(ss, when+", spilled, second pass")
			if err := ss.SpillAll(); err != nil || ss.ResidentMonomials() != 0 {
				t.Fatalf("%s: SpillAll of a spilled set: %v, %d monomials resident", when, err, ss.ResidentMonomials())
			}
			if budget > 0 && ss.PeakResidentMonomials() > budget {
				t.Fatalf("%s: peak residency %d exceeds the budget", when, ss.PeakResidentMonomials())
			}
			return spills
		}
		total := scenario(0)
		if total < 3 {
			t.Fatalf("budget %d: SpillAll made only %d spills", budget, total)
		}
		for failAt := 1; failAt <= total; failAt++ {
			scenario(failAt)
		}
	}
	ss := mustBuildSharded(t, set, ShardOptions{TargetMonomials: 24})
	ss.Close()
	if err := ss.SpillAll(); err == nil {
		t.Fatal("SpillAll of a closed set succeeded")
	}
}

func mustBuildSharded(t *testing.T, set *Set, opts ShardOptions) *ShardedSet {
	t.Helper()
	ss, err := BuildSharded(set, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ss.Close() })
	return ss
}

// TestPackedPassCancelRestoresResidency: a packed pass canceled mid-way
// (through WithContext, as Dataset.EvalBatch runs it) stops at the next
// shard with the context's error, releases the shard it had loaded, and
// leaves the set answering as before.
func TestPackedPassCancelRestoresResidency(t *testing.T) {
	set := buildTestSet(60, 10)
	ss := mustBuildSharded(t, set, ShardOptions{TargetMonomials: 40, MaxResidentMonomials: 120, SpillDir: t.TempDir()})
	want, _, err := passDigests(ss) // also settles what stays resident
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	packed, ok := PackedShards(WithContext(ctx, ss))
	if !ok {
		t.Fatal("a ShardedSet behind WithContext offers no packed shards")
	}
	before, calls := ss.ResidentMonomials(), 0
	err = packed.ForEachPackedShard(func(i, _ int, _ *PackedSet) error {
		calls++
		if i == 2 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) || calls != 3 {
		t.Fatalf("canceled at shard 2: err %v after %d shards", err, calls)
	}
	if got := ss.ResidentMonomials(); got != before || got != residentByShards(ss) {
		t.Fatalf("residency %d after the canceled pass, %d before, the resident shards hold %d", got, before, residentByShards(ss))
	}
	viaSet, viaPacked, err := passDigests(ss)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(viaSet) != fmt.Sprint(want) || fmt.Sprint(viaPacked) != fmt.Sprint(want) {
		t.Fatal("the pass after the canceled one answers differently")
	}

	// A source without packed shards does not grow them behind a wrapper.
	if _, ok := PackedShards(WithContext(ctx, set)); ok {
		t.Fatal("a *Set behind WithContext claims packed shards")
	}
	if err := (&ContextSource{ctx: ctx, src: set}).ForEachPackedShard(nil); err == nil {
		t.Fatal("forwarding a packed pass to a *Set succeeded")
	}
}

// specialCoefs are coefficients a decoder converting number by number
// could lose: a NaN with a payload, -0, a subnormal and both infinities.
var specialCoefs = []float64{math.Float64frombits(0x7ff8000000000001), math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1)}

// specialPoly puts every special coefficient on its own monomial, with an
// exponent other than 1, so its shard carries an exponent column.
func specialPoly(x, y Var) Polynomial {
	var p Polynomial
	for i, c := range specialCoefs {
		p.Mons = append(p.Mons, Monomial{Coef: c, Terms: []Term{TExp(x, int32(i+1)), T(y)}})
	}
	return p
}

// spillSeeds are real encodings: with and without an exponent column,
// empty polynomials, constant monomials, an empty shard, and the special
// coefficients.
func spillSeeds(tb testing.TB) (*Names, [][]byte) {
	names := NewNames()
	x, y := names.Var("x"), names.Var("y")
	sets := []*Set{NewSet(names), NewSet(names), NewSet(names), NewSet(names)}
	sets[1].Add("sum", Polynomial{Mons: []Monomial{{Coef: 2, Terms: []Term{T(x), T(y)}}, {Coef: -0.5, Terms: []Term{T(y)}}}})
	sets[1].Add("", Polynomial{})
	sets[1].Add("const", Polynomial{Mons: []Monomial{{Coef: math.Inf(1)}}})
	sets[2].Add("pow", Polynomial{Mons: []Monomial{{Coef: 3, Terms: []Term{T(x), TExp(y, 4)}}}})
	sets[2].Add("k", Polynomial{Mons: []Monomial{{Coef: math.NaN(), Terms: []Term{TExp(x, 2)}}}})
	sets[3].Add("special", specialPoly(x, y))
	var out [][]byte
	for _, s := range sets {
		data, err := encodeShardPayload(nil, mustPack(tb, s))
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, data)
	}
	return names, out
}

// TestSpillDecodeCorruptions names every way a spill record can be wrong
// and the error it gets; each is one edit of a real encoding, decoded as
// a whole record. A record the reader holds only part of fails the read
// that reaches past its end.
func TestSpillDecodeCorruptions(t *testing.T) {
	names, seeds := spillSeeds(t)
	sum, pow := seeds[1], seeds[2] // 3 polys, 3 mons, 3 terms, no exps / 2 polys, 2 mons, 3 terms, exps
	ne := binary.NativeEndian
	const counts = len(spillMagic)
	polyOff := spillHeadLen
	put := func(off int, v uint32) func([]byte) []byte {
		return func(b []byte) []byte { ne.PutUint32(b[off:], v); return b }
	}
	for _, tc := range []struct {
		name    string
		data    []byte
		corrupt func([]byte) []byte
		want    string
	}{
		{"empty file", sum, func(b []byte) []byte { return nil }, "bad spill magic"},
		{"old magic", sum, func(b []byte) []byte { b[6] = '2'; return b }, "bad spill magic"},
		{"truncated header", sum, func(b []byte) []byte { return b[:spillHeadLen-1] }, "bad spill magic"},
		{"truncated by one byte", sum, func(b []byte) []byte { return b[:len(b)-1] }, "corrupt spill length: counts imply 116 bytes, the record holds 115"},
		{"one trailing byte", sum, func(b []byte) []byte { return append(b, 0) }, "corrupt spill length"},
		{"2^31 monomials", sum, put(counts+4, 1<<31), "corrupt spill counts"},
		{"2^31 terms", sum, put(counts+8, 1<<31), "corrupt spill counts"},
		{"2^32-1 polynomials", sum, put(counts, math.MaxUint32), "corrupt spill counts"},
		{"a billion monomials", sum, put(counts+4, 1_000_000_000), "corrupt spill length: counts imply 12000000080 bytes"},
		{"half an exponent column", pow, put(counts+12, 1), "corrupt spill counts"},
		{"first polynomial offset not 0", sum, put(polyOff, 1), "corrupt spill polynomial offsets"},
		{"polynomial offsets decrease", sum, put(polyOff+4, 3), "corrupt spill polynomial offsets"},
		{"polynomial offsets end early", sum, put(polyOff+12, 2), "corrupt spill polynomial offsets"},
		{"monomial offsets decrease", sum, put(polyOff+16+8, 1), "corrupt spill monomial offsets"},
		{"monomial offsets end late", sum, put(polyOff+16+12, 4), "corrupt spill monomial offsets"},
		{"variable outside the namespace", sum, put(polyOff+16+16+24, 2), "corrupt spill variable 2, the namespace has 2"},
		{"negative variable", sum, put(polyOff+16+16+24, math.MaxUint32), "corrupt spill variable"},
		{"negative exponent", pow, put(polyOff+12+12+16+12+4, 1<<31), "corrupt spill exponents"},
		{"exponent column of all ones", pow, func(b []byte) []byte {
			b = put(polyOff+12+12+16+12+4, 1)(b)
			return put(polyOff+12+12+16+12+8, 1)(b)
		}, "corrupt spill exponents"},
		{"key length past the block", sum, put(len(sum)-8-12, 9), "corrupt spill key lengths"},
		{"key lengths short of the block", sum, put(len(sum)-8-12, 2), "corrupt spill key lengths"},
	} {
		data := tc.corrupt(bytes.Clone(tc.data))
		err := new(spillDecoder).decode(bytes.NewReader(data), 0, int64(len(data)), names, new(PackedSet))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	for what, held := range map[string]int{"header": spillHeadLen - 1, "slabs": spillHeadLen + 4, "keys": len(sum) - 1} {
		err := new(spillDecoder).decode(bytes.NewReader(sum[:held]), 0, int64(len(sum)), names, new(PackedSet))
		if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "reading spill "+what) {
			t.Errorf("a record cut short in its %s: got %v, want reading spill %s: %v", what, err, what, io.ErrUnexpectedEOF)
		}
	}
	for i, seed := range seeds {
		if err := new(spillDecoder).decode(bytes.NewReader(seed), 0, int64(len(seed)), names, new(PackedSet)); err != nil {
			t.Errorf("seed %d does not decode: %v", i, err)
		}
	}
}

// FuzzSpillDecode: whatever the bytes, decoding yields an error or a
// PackedSet that encodes back to exactly them — never a panic, and never an
// allocation the input's own length does not cover (the length check comes
// before the first one, so slabs total at most the input's size). The
// decoder and the scratch are reused across inputs, as ForEachPackedShard
// reuses them across shards, so a rejected input must not poison the next
// decode either.
func FuzzSpillDecode(f *testing.F) {
	names, seeds := spillSeeds(f)
	r := rand.New(rand.NewSource(5))
	for _, seed := range seeds {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		flipped := bytes.Clone(seed)
		flipped[r.Intn(len(flipped))] ^= 1 << r.Intn(8)
		f.Add(flipped)
		for off := len(spillMagic); off < spillHeadLen; off += 4 {
			huge := bytes.Clone(seed)
			binary.NativeEndian.PutUint32(huge[off:], 1<<31)
			f.Add(huge)
		}
		if len(seed) > spillHeadLen+8 {
			decreasing := bytes.Clone(seed)
			binary.NativeEndian.PutUint32(decreasing[spillHeadLen+4:], math.MaxInt32)
			f.Add(decreasing)
			longKey := bytes.Clone(seed)
			longKey[len(longKey)-1]++
			f.Add(longKey)
		}
	}
	var dec spillDecoder
	scratch := new(PackedSet)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := dec.decode(bytes.NewReader(data), 0, int64(len(data)), names, scratch); err != nil {
			return
		}
		slabs := 4*(len(scratch.polyOff)+len(scratch.monOff)+len(scratch.vars)+len(scratch.exps)) + 8*len(scratch.coefs)
		if slabs > len(data) {
			t.Fatalf("decoded %d bytes of slabs from %d bytes of input", slabs, len(data))
		}
		again, err := encodeShardPayload(nil, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("decoded set re-encodes to different bytes:\n in  %x\n out %x", data, again)
		}
	})
}

// sameSlabs reports the first slab in which got differs from want, or "";
// coefficients are compared by their bits.
func sameSlabs(got, want *PackedSet) string {
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	switch {
	case !slices.Equal(got.keys, want.keys):
		return "keys"
	case !slices.Equal(got.PolyOff(), want.PolyOff()):
		return "polynomial offsets"
	case !slices.Equal(got.MonOff(), want.MonOff()):
		return "monomial offsets"
	case !slices.EqualFunc(got.Coefs(), want.Coefs(), sameBits):
		return "coefficients"
	case !slices.Equal(got.Vars(), want.Vars()):
		return "variables"
	case !slices.Equal(got.Exps(), want.Exps()):
		return "exponents"
	}
	return ""
}

// TestSpillRoundTripBitIdentical: a set built under a budget, then spilled
// whole so every shard goes through the decoder, comes back,
// shard for shard, as exactly the slabs PackSet builds from the same
// polynomials — the special coefficients included, bit for bit, in shards
// with an exponent column and without — and decoding the shard's record,
// read from the spill file at its offset into a buffer one byte into
// another and decoded from there through a bytes.Reader, gives the same
// slabs, so the decoder never reads a record's bytes as typed (aligned)
// values and honours the offset it is given.
func TestSpillRoundTripBitIdentical(t *testing.T) {
	set := buildTestSet(36, 8)
	x, c0 := set.Names.Var("x0"), set.Names.Var("c0")
	set.Add("special", specialPoly(x, c0))
	for p := 0; p < 4; p++ { // SUM-shaped: shards with no exponent column
		var b Builder
		for m := 0; m < 8; m++ {
			b.Add(float64(m)+0.25, T(x), T(set.Names.Var(fmt.Sprintf("c%d", m))))
		}
		set.Add(fmt.Sprintf("sum%d", p), b.Polynomial())
	}
	ss := mustBuildSharded(t, set, ShardOptions{TargetMonomials: 24, MaxResidentMonomials: 64, SpillDir: t.TempDir()})
	if err := ss.SpillAll(); err != nil {
		t.Fatal(err)
	}
	var withExps, withoutExps, nanPayloads int
	err := ss.ForEachPackedShard(func(i, firstPoly int, ps *PackedSet) error {
		lo, hi := firstPoly, firstPoly+ps.Len()
		want, err := PackSet(&Set{Names: set.Names, Keys: set.Keys[lo:hi], Polys: set.Polys[lo:hi]})
		if err != nil {
			return err
		}
		if diff := sameSlabs(ps, want); diff != "" {
			return fmt.Errorf("shard %d: the packed pass's %s differ from PackSet's", i, diff)
		}
		sh := ss.shards[i]
		buf := make([]byte, 1+sh.n)
		if _, err := ss.spill.ReadAt(buf[1:], sh.off); err != nil {
			return err
		}
		var unaligned PackedSet
		if err := new(spillDecoder).decode(bytes.NewReader(buf), 1, sh.n, set.Names, &unaligned); err != nil {
			return fmt.Errorf("shard %d, decoded one byte off: %w", i, err)
		}
		if diff := sameSlabs(&unaligned, want); diff != "" {
			return fmt.Errorf("shard %d, decoded one byte off: %s differ from PackSet's", i, diff)
		}
		if ps.Exps() == nil {
			withoutExps++
		} else {
			withExps++
		}
		for _, c := range ps.Coefs() {
			if math.Float64bits(c) == math.Float64bits(specialCoefs[0]) {
				nanPayloads++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if withExps == 0 || withoutExps == 0 || nanPayloads != 1 {
		t.Fatalf("fixture: %d shards with an exponent column, %d without, %d NaN payloads seen", withExps, withoutExps, nanPayloads)
	}
}

// TestSpillIOCounts: the spill counters are exact. The bytes written are
// the spill file's size, and a packed pass and a *Set pass that spill
// nothing each load every spilled shard once, reading exactly its record;
// only the *Set pass's loads count as SetLoads.
func TestSpillIOCounts(t *testing.T) {
	set := buildTestSet(60, 10)
	dir := t.TempDir()
	ss := mustBuildSharded(t, set, ShardOptions{TargetMonomials: 40, MaxResidentMonomials: 120, SpillDir: dir})
	if _, _, err := passDigests(ss); err != nil { // also settles what stays resident
		t.Fatal(err)
	}
	spilled := ss.SpilledShards()
	if spilled == 0 || spilled == ss.NumShards() {
		t.Fatalf("fixture: %d of %d shards spilled", spilled, ss.NumShards())
	}
	files := countFilesUnder(t, dir)
	if len(files) != 1 {
		t.Fatalf("%d spill files, want 1: %v", len(files), files)
	}
	st, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var records int64
	for _, sh := range ss.shards {
		if sh.set == nil {
			records += sh.n
		}
	}
	before := ss.SpillIO()
	if before.BytesWritten != st.Size() || records != st.Size() {
		t.Fatalf("%d bytes written, the spilled shards' records hold %d, the spill file %d", before.BytesWritten, records, st.Size())
	}
	if err := ss.ForEachPackedShard(func(_, _ int, _ *PackedSet) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := ss.ForEachShard(func(_, _ int, _ *Set) error { return nil }); err != nil {
		t.Fatal(err)
	}
	want := SpillStats{
		Loads:        before.Loads + 2*spilled,
		SetLoads:     before.SetLoads + spilled,
		BytesRead:    before.BytesRead + 2*records,
		BytesWritten: st.Size(),
	}
	if got := ss.SpillIO(); got != want {
		t.Fatalf("after a packed and a *Set pass over %d spilled shards: %+v, want %+v", spilled, got, want)
	}
}

// TestSpillDecodeAllocations pins the decoder's allocations: decoding a
// shard into a scratch that has already grown to it allocates once, for
// the key block — the header and key bytes go through the decoder's own
// buffers.
func TestSpillDecodeAllocations(t *testing.T) {
	shard := telephonyShaped(66)
	data, err := encodeShardPayload(nil, mustPack(t, shard))
	if err != nil {
		t.Fatal(err)
	}
	r, n := bytes.NewReader(data), int64(len(data))
	var dec spillDecoder
	ps := new(PackedSet)
	if err := dec.decode(r, 0, n, shard.Names, ps); err != nil { // grows the scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := dec.decode(r, 0, n, shard.Names, ps); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("decoding a %d-monomial shard into a grown scratch allocates %.0f times, want 1", ps.Size(), allocs)
	}
}
