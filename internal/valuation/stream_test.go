package valuation

import (
	"fmt"
	"testing"

	"github.com/cobra-prov/cobra/internal/polynomial"
)

// TestEvalBatchShardedMatchesInMemory: streaming valuation over a spilled
// sharded set must be bit-identical to compiling the whole set, for every
// worker count.
func TestEvalBatchShardedMatchesInMemory(t *testing.T) {
	names := polynomial.NewNames()
	set := polynomial.NewSet(names)
	for g := 0; g < 200; g++ {
		var b polynomial.Builder
		for m := 0; m < 1+g%7; m++ {
			b.Add(float64(g+m)+0.25,
				polynomial.T(names.Var(fmt.Sprintf("x%d", (g+m)%23))),
				polynomial.TExp(names.Var(fmt.Sprintf("y%d", m%5)), int32(1+m%3)))
		}
		set.Add(fmt.Sprintf("g%d", g), b.Polynomial())
	}
	ss, err := polynomial.BuildSharded(set, polynomial.ShardOptions{
		MaxResidentMonomials: set.Size() / 5,
		SpillDir:             t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if ss.SpilledShards() == 0 {
		t.Fatal("fixture did not spill")
	}

	assignments := make([]*Assignment, 60)
	for s := range assignments {
		a := New(names)
		a.SetVar(polynomial.Var(s%names.Len()), 0.5+0.01*float64(s))
		a.SetVar(polynomial.Var((s*7)%names.Len()), 1.25)
		assignments[s] = a
	}
	want := Compile(set).EvalBatchN(assignments, nil, 1)

	check := func(label string, got [][]float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows vs %d", label, len(got), len(want))
		}
		for a := range want {
			if len(got[a]) != len(want[a]) {
				t.Fatalf("%s: row %d has %d cells, want %d", label, a, len(got[a]), len(want[a]))
			}
			for j := range want[a] {
				if got[a][j] != want[a][j] {
					t.Fatalf("%s: row %d cell %d: %v != %v", label, a, j, got[a][j], want[a][j])
				}
			}
		}
	}

	packed, err := polynomial.PackSet(set)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 8} {
		got, err := EvalBatchSource(ss, assignments, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		check(fmt.Sprintf("sharded workers=%d", w), got)
		// The same unified implementation over the in-memory source.
		got, err = EvalBatchSource(set, assignments, w)
		if err != nil {
			t.Fatalf("set source workers=%d: %v", w, err)
		}
		check(fmt.Sprintf("set source workers=%d", w), got)
		// And over the packed slab-backed source.
		got, err = EvalBatchSource(packed, assignments, w)
		if err != nil {
			t.Fatalf("packed source workers=%d: %v", w, err)
		}
		check(fmt.Sprintf("packed source workers=%d", w), got)
	}
}
