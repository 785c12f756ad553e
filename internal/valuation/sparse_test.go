package valuation

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/cobra-prov/cobra/internal/polynomial"
)

// referenceEvalBatch is the evaluation loop as it was before the sparse
// path and the exponent-1 kernel: a dense vector of numVars ones refilled
// for every scenario, every polynomial evaluated, one branch per term. It
// reads the set, not a compiled program, so it checks Compile as well.
func referenceEvalBatch(set *polynomial.Set, numVars int, assignments []*Assignment) [][]float64 {
	out := make([][]float64, len(assignments))
	dense := make([]float64, numVars)
	for i, a := range assignments {
		for j := range dense {
			dense[j] = 1
		}
		for _, e := range a.vals {
			if e.v >= 0 && int(e.v) < numVars {
				dense[e.v] = e.x
			}
		}
		row := make([]float64, 0, len(set.Polys))
		for _, poly := range set.Polys {
			sum := 0.0
			for _, m := range poly.Mons {
				x := m.Coef
				for _, t := range m.Terms {
					if v := dense[t.Var]; t.Exp == 1 {
						x *= v
					} else {
						x *= powInt(v, t.Exp)
					}
				}
				sum += x
			}
			row = append(row, sum)
		}
		out[i] = row
	}
	return out
}

func sameBits(t *testing.T, label string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d has %d cells, want %d", label, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("%s: row %d cell %d: %v (%#x) != %v (%#x)", label, i, j,
					got[i][j], math.Float64bits(got[i][j]), want[i][j], math.Float64bits(want[i][j]))
			}
		}
	}
}

// randomShapes are the shapes randomSet draws: one per kernel, and
// "alternating", whose polynomials take arity 2, arity 1 and a mix of 0–3
// terms in turn, all exponents 1.
var randomShapes = []string{"generic", "exp1", "arity1", "arity2", "alternating"}

// randomSet draws a set over used variables v0..v{used-1} of a namespace
// that also holds unused ones: some polynomials empty and, unless shape
// fixes the arity, some monomials constant. Exponents are mixed 1–4 in the
// "generic" shape and all 1 in the others.
func randomSet(r *rand.Rand, shape string) *polynomial.Set {
	names := polynomial.NewNames()
	used := 1 + r.Intn(30)
	for v := 0; v < used+r.Intn(5); v++ {
		names.Var(fmt.Sprintf("v%d", v))
	}
	set := polynomial.NewSet(names)
	for g, n := 0, r.Intn(25); g < n; g++ {
		arity := map[string]int{"arity1": 1, "arity2": 2}[shape]
		if shape == "alternating" {
			arity = []int{2, 1, 0}[g%3]
		}
		var b polynomial.Builder
		if r.Intn(8) > 0 {
			for m, mons := 0, 1+r.Intn(12); m < mons; m++ {
				k := arity
				if k == 0 {
					k = r.Intn(4)
				}
				var terms []polynomial.Term
				// Distinct variables, so that merging cannot raise an
				// exponent of 1 above 1.
				for _, v := range r.Perm(used)[:min(used, k)] {
					e := int32(1)
					if shape == "generic" && r.Intn(3) == 0 {
						e = int32(2 + r.Intn(3))
					}
					terms = append(terms, polynomial.TExp(polynomial.Var(v), e))
				}
				b.Add(float64(r.Intn(2000)-1000)/64+0.01, terms...)
			}
		}
		if err := set.Add(fmt.Sprintf("g%d", g), b.Polynomial()); err != nil {
			panic(err)
		}
	}
	return set
}

// randomValue draws a variable's value: in [0, 2) five times in six, else
// one of 0, NaN, ±Inf, -0 and 1.
func randomValue(r *rand.Rand) float64 {
	if r.Intn(6) == 0 {
		return []float64{0, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1}[r.Intn(6)]
	}
	return r.Float64() * 2
}

// randomAssignments draws scenarios of every shape the sparse path tells
// apart. beyond lists variables outside the compiled namespace.
func randomAssignments(r *rand.Rand, names *polynomial.Names, numVars int, beyond []polynomial.Var) []*Assignment {
	var out []*Assignment
	for s, n := 0, 1+r.Intn(24); s < n; s++ {
		a := New(names)
		switch r.Intn(5) {
		case 0: // all ones, nothing explicit
		case 1: // sparse
			for k := 0; k < 1+r.Intn(3); k++ {
				a.SetVar(polynomial.Var(r.Intn(numVars)), randomValue(r))
			}
		case 2: // dense
			for v := 0; v < numVars; v++ {
				a.SetVar(polynomial.Var(v), randomValue(r))
			}
		case 3: // every variable explicit, almost all exactly 1: what Induced builds
			for v := 0; v < numVars; v++ {
				a.SetVar(polynomial.Var(v), 1)
			}
			a.SetVar(polynomial.Var(r.Intn(numVars)), randomValue(r))
		case 4: // outside the namespace only, or mixed with one inside
			if r.Intn(2) == 0 {
				a.SetVar(polynomial.Var(r.Intn(numVars)), randomValue(r))
			}
		}
		if r.Intn(3) == 0 {
			a.SetVar(beyond[r.Intn(len(beyond))], randomValue(r))
		}
		out = append(out, a)
	}
	return out
}

// TestEvalBatchNMatchesReference: on generated programs of every shape and
// generated scenarios, EvalBatchN's rows are bit-identical to the pre-change
// loop for every worker count and with reused row buffers, whatever the
// same Program evaluated before, and so are EvalBatchSource's over a
// sharded copy of the set — for each of the four kernels, and over shards
// that cross from a uniform arity to a mix and back, where one Program
// re-pointed at the next shard must not keep the last one's kernel.
func TestEvalBatchNMatchesReference(t *testing.T) {
	kernels, crossings := map[string]int{}, 0
	for trial := 0; trial < 300; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		shape := randomShapes[trial%len(randomShapes)]
		kernel, shards := checkAgainstReference(t, r, fmt.Sprintf("trial %d (%s)", trial, shape), randomSet(r, shape), trial%10 == 0, sameBits)
		if shape != "generic" && kernel == "generic" {
			t.Fatalf("trial %d: an all-ones program kept its exponents", trial)
		}
		kernels[kernel]++
		for i := 1; i < len(shards); i++ {
			if shards[i] != shards[i-1] && strings.HasPrefix(shards[i-1], "arity") {
				crossings++
			}
		}
	}
	if len(kernels) != 4 || crossings == 0 {
		t.Fatalf("kernels exercised: %v; shards following one of a different arity kernel: %d", kernels, crossings)
	}
}

// FuzzProgramEval is TestEvalBatchNMatchesReference's check on one
// generated set and its scenarios, drawn from seed in the shape numbered
// shape; the seed corpus is in testdata/fuzz/FuzzProgramEval. Rows are
// compared bit for bit except that any NaN equals any NaN: when both
// operands of a multiply or add are NaN, x86 passes on the one the
// compiler placed first, and the coverage counters of a fuzzing build
// move that choice, in the reference loop and the kernels alike.
func FuzzProgramEval(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, spill bool) {
		r := rand.New(rand.NewSource(seed))
		name := randomShapes[int(shape)%len(randomShapes)]
		checkAgainstReference(t, r, fmt.Sprintf("seed %d (%s)", seed, name), randomSet(r, name), spill, sameUpToNaN)
	})
}

// sameUpToNaN is sameBits with every NaN read as math.NaN().
func sameUpToNaN(t *testing.T, label string, got, want [][]float64) {
	t.Helper()
	canonical := func(rows [][]float64) [][]float64 {
		out := make([][]float64, len(rows))
		for i, row := range rows {
			out[i] = slices.Clone(row)
			for j, x := range row {
				if math.IsNaN(x) {
					out[i][j] = math.NaN()
				}
			}
		}
		return out
	}
	sameBits(t, label, canonical(got), canonical(want))
}

// checkAgainstReference draws scenarios for set and fails unless every way
// of evaluating them gives referenceEvalBatch's rows, as compared by same:
// EvalBatchN for Workers 1, 2 and 8 into fresh and into reused rows, sparse
// and full passes interleaved on one Program, and EvalBatchSource over a
// sharded copy of set (spilled under a budget with spill). It returns the
// kernel set compiled to and the kernels of the copy's shards in order.
func checkAgainstReference(t *testing.T, r *rand.Rand, label string, set *polynomial.Set, spill bool,
	same func(t *testing.T, label string, got, want [][]float64)) (string, []string) {
	t.Helper()
	prog := Compile(set)
	numVars := prog.NumVars()

	// Variables interned after Compile lie beyond the program's
	// namespace, as does NoVar.
	beyond := []polynomial.Var{polynomial.NoVar, set.Names.Var("late0"), set.Names.Var("late1")}
	assignments := randomAssignments(r, set.Names, numVars, beyond)
	want := referenceEvalBatch(set, numVars, assignments)

	var reuse [][]float64
	for _, workers := range []int{1, 2, 8} {
		at := fmt.Sprintf("%s workers %d", label, workers)
		same(t, at, prog.EvalBatchN(assignments, nil, workers), want)
		// Stale rows of other scenarios in the reused buffer.
		reuse = prog.EvalBatchN(assignments[len(assignments)/2:], reuse, workers)
		reuse = prog.EvalBatchN(assignments, reuse, workers)
		same(t, at+" reused", reuse, want)
	}

	// One Program, so one pool of sweeps behind every call: sparse and
	// full passes interleaved over slices of the scenarios and every
	// worker count. A sweep that went back dirty — a variable left
	// moved, a stale mark — changes a bit of a later call's rows.
	for step := 0; step < 8; step++ {
		lo := r.Intn(len(assignments))
		hi := lo + 1 + r.Intn(len(assignments)-lo)
		workers, sparse := []int{1, 2, 8}[r.Intn(3)], r.Intn(2) == 0
		reuse = prog.evalBatch(assignments[lo:hi], reuse, workers, sparse)
		same(t, fmt.Sprintf("%s step %d workers %d sparse %v", label, step, workers, sparse), reuse, want[lo:hi])
	}

	checkBlocks(t, r, label, set, same)

	// A shard of one polynomial at a time for a third of the sets, so
	// that "alternating" changes arity from shard to shard.
	opts := polynomial.ShardOptions{TargetMonomials: 1 + r.Intn(20)}
	if r.Intn(3) == 0 {
		opts.TargetMonomials = 1
	}
	if spill {
		opts.MaxResidentMonomials, opts.SpillDir = 2+set.Size()/3, t.TempDir()
	}
	ss, err := polynomial.BuildSharded(set, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := EvalBatchSource(ss, assignments, workers)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		same(t, fmt.Sprintf("%s sharded workers %d", label, workers), got, want)
	}
	var shards []string
	err = ss.ForEachPackedShard(func(_, _ int, ps *polynomial.PackedSet) error {
		shard := &Program{coefs: ps.Coefs(), monOff: ps.MonOff(), tExps: ps.Exps()}
		shard.setArity()
		shards = append(shards, kernelOf(shard))
		return nil
	})
	if err == nil {
		err = ss.Close()
	}
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return kernelOf(prog), shards
}

// checkBlocks is checkAgainstReference's check of blocked full passes:
// batches of every length from one scenario to two blocks and one over,
// scenarios that need a full pass (every variable moved) interleaved with
// ones that may not (one variable moved), so that blocks fill, a remainder
// of two or three runs with padded columns and a lone last full-pass
// scenario runs alone. Each batch is evaluated sparse and full, for
// Workers 1, 2 and 8, into fresh rows and into rows holding another
// batch's. Each batch gets a Program of its own, whose one sweep after a
// call on one worker shows whether a block ran: a full pass of two or more
// scenarios is blocked unless the program has an exponent above 1.
//
// Under the race detector every load is a call, the kernels' sums are
// spilled around them, and the register allocator places the operands of
// a column's add differently from evalPoly's (the sum first in one column,
// the product in the others). When both are NaN, x86 passes on the first,
// so there the blocks are compared with any NaN equal to any NaN, as
// FuzzProgramEval compares everything for the same reason; every other
// build compares them as same does.
func checkBlocks(t *testing.T, r *rand.Rand, label string, set *polynomial.Set,
	same func(t *testing.T, label string, got, want [][]float64)) {
	t.Helper()
	if raceEnabled {
		same = sameUpToNaN
	}
	var reuse [][]float64
	for n := 1; n <= 2*blockRows+1; n++ {
		prog := Compile(set)
		batch := make([]*Assignment, n)
		for i := range batch {
			batch[i] = New(set.Names)
			if r.Intn(3) == 0 {
				batch[i].SetVar(polynomial.Var(r.Intn(prog.NumVars()+1)), randomValue(r))
				continue
			}
			for v := 0; v < prog.NumVars(); v++ {
				batch[i].SetVar(polynomial.Var(v), randomValue(r))
			}
		}
		want := referenceEvalBatch(set, prog.NumVars(), batch)
		at := fmt.Sprintf("%s batch of %d", label, n)
		same(t, at+" full", prog.evalBatch(batch, nil, 1, false), want)
		if s, ok := prog.sweeps.Get().(*sweep); ok {
			if blocked, want := s.vb != nil, n > 1 && kernelOf(prog) != "generic"; blocked != want {
				t.Fatalf("%s: %s kernel, a block ran: %v, want %v", at, kernelOf(prog), blocked, want)
			}
			prog.sweeps.Put(s)
		}
		for _, workers := range []int{1, 2, 8} {
			for _, sparse := range []bool{false, true} {
				at := fmt.Sprintf("%s workers %d sparse %v", at, workers, sparse)
				eval := func(batch []*Assignment, rows [][]float64) [][]float64 {
					if sparse {
						return prog.EvalBatchN(batch, rows, workers)
					}
					return prog.evalBatch(batch, rows, workers, false)
				}
				same(t, at, eval(batch, nil), want)
				reuse = eval(batch, eval(batch[n/2:], reuse))
				same(t, at+" reused", reuse, want)
			}
		}
	}
}

// TestNegativeVarIgnored: an assignment holding NoVar used to index the
// dense vector at -1 and panic.
func TestNegativeVarIgnored(t *testing.T) {
	names := polynomial.NewNames()
	set := polynomial.NewSet(names)
	set.Add("g", polynomial.MustParse("2*x*y + 3", names))
	a := New(names).MustSet("x", 5)
	a.SetVar(polynomial.NoVar, 7)

	if got, want := a.Dense(names.Len()), []float64{5, 1}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Dense = %v, want %v", got, want)
	}
	prog := Compile(set)
	if got := prog.EvalBatchN([]*Assignment{a}, nil, 1); got[0][0] != 13 {
		t.Fatalf("EvalBatchN = %v, want [[13]]", got)
	}
	if got := prog.EvalAssignment(a, nil); got[0] != 13 {
		t.Fatalf("EvalAssignment = %v, want [13]", got)
	}
	got, err := EvalBatchSource(set, []*Assignment{a}, 1)
	if err != nil || got[0][0] != 13 {
		t.Fatalf("EvalBatchSource = %v, %v, want [[13]]", got, err)
	}
}

// TestSweepEpochWrap: when the epoch counter wraps, marks left by earlier
// scenarios must not read as current ones.
func TestSweepEpochWrap(t *testing.T) {
	names := polynomial.NewNames()
	set := polynomial.NewSet(names)
	for g := 0; g < 6; g++ {
		set.Add(fmt.Sprintf("g%d", g), polynomial.MustParse(fmt.Sprintf("%d*x%d*s", g+2, g%3), names))
	}
	set.Add("other", polynomial.MustParse("y", names))
	prog := Compile(set)
	prog.sparseOnce.Do(prog.buildSparse)

	var scenarios []*Assignment
	for i := 0; i < 8; i++ {
		scenarios = append(scenarios, New(names).MustSet(fmt.Sprintf("x%d", i%3), 0.5+float64(i)))
	}
	want := referenceEvalBatch(set, prog.NumVars(), scenarios)

	s := sweep{p: prog, dense: slices.Repeat([]float64{1}, prog.numVars), mark: make([]uint32, prog.NumPolys())}
	// The stamps a scenario 2^32 ago left: the first epoch after the wrap.
	for pi := range s.mark {
		s.mark[pi] = 1
	}
	s.epoch = math.MaxUint32 - 2
	var got [][]float64
	for _, a := range scenarios {
		got = append(got, s.eval(a, nil, true))
		if len(s.touched) != 2 {
			t.Fatalf("epoch %d: touched %v, want two polynomials", s.epoch, s.touched)
		}
	}
	if s.epoch >= 8 {
		t.Fatalf("epoch %d: the counter did not wrap", s.epoch)
	}
	sameBits(t, "across the wrap", got, want)
}

// TestProgramEvalAllocations pins the invariant the compiled form exists
// for: Program.Eval into a reused row allocates nothing, on every kernel —
// every per-evaluation buffer belongs to the caller. Neither does a blocked
// full pass once its sweep is warm: EvalBatchN of 16 dense scenarios into
// reused rows, on every kernel that blocks (not under the race detector,
// where sync.Pool drops pooled sweeps).
func TestProgramEvalAllocations(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, kernel := range []string{"generic", "exp1", "arity2", "arity1"} {
		set := denseShaped(kernel)
		prog := compileAs(t, set, kernel)
		vals := New(set.Names).Dense(prog.NumVars())
		row := prog.Eval(vals, nil)
		if allocs := testing.AllocsPerRun(10, func() { row = prog.Eval(vals, row) }); allocs != 0 {
			t.Fatalf("%s kernel: Eval into a reused row allocates %.0f objects, want 0", kernel, allocs)
		}
		if kernel == "generic" || raceEnabled {
			continue
		}
		scenarios := denseScenarios(r, prog, 16)
		rows := prog.EvalBatchN(scenarios, nil, 1)
		if allocs := testing.AllocsPerRun(5, func() { rows = prog.EvalBatchN(scenarios, rows, 1) }); allocs != 0 {
			t.Fatalf("%s kernel: EvalBatchN of %d dense scenarios into reused rows allocates %.0f objects, want 0",
				kernel, len(scenarios), allocs)
		}
	}
}
