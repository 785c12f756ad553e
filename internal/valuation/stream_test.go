package valuation_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/cobra-prov/cobra/internal/polyio"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/valuation"
)

// TestEvalBatchShardedMatchesInMemory is the property the streamed
// evaluation is held to: over generated sets — exponents all 1 (no exponent
// column anywhere; one or two terms per monomial, a mix, or the two
// alternating with a mix) or mixed 1–4, constant monomials, empty polynomials, one
// polynomial larger than the shard target, ±Inf and NaN among coefficients
// and values — EvalBatchSource returns, from every representation of the
// set and for every worker count, rows Float64bits-equal to compiling the
// materialized set. The representations are the *Set (compiled per shard),
// and the four that hand their shards over packed: a PackedSet, a
// ShardedSet with every shard resident (copied into the scratch), one
// spilled under a budget of an eighth of its size (decoded into it) and the
// IndexedSet over its v3 stream; each also behind WithContext.
func TestEvalBatchShardedMatchesInMemory(t *testing.T) {
	r := rand.New(rand.NewSource(20261001))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spilled, withExps := 0, 0
	for trial := 0; trial < 120; trial++ {
		allOnes := trial%2 == 0
		shape := "generic"
		if allOnes {
			shape = []string{"exp1", "arity1", "arity2", "alternating"}[trial/2%4]
		}
		set := valuation.RandomSet(r, shape)
		names := set.Names
		if trial%3 == 0 {
			// One polynomial several shard targets large, over v0 alone so
			// no two of its monomials merge; two coefficients not finite.
			var b polynomial.Builder
			for m := 1; m <= 40+r.Intn(40); m++ {
				coef := float64(m) + 0.5
				switch m {
				case 7:
					coef = math.Inf(-1)
				case 9:
					coef = math.NaN()
				}
				e := int32(m)
				if allOnes {
					e = 1
					b.Add(coef, polynomial.T(0), polynomial.T(names.Var(fmt.Sprintf("big%d", m))))
					continue
				}
				b.Add(coef, polynomial.TExp(0, e))
			}
			if err := set.Add("big", b.Polynomial()); err != nil {
				t.Fatal(err)
			}
		}
		numVars := names.Len()
		beyond := []polynomial.Var{polynomial.Var(numVars), polynomial.Var(numVars + 7), polynomial.NoVar}
		assignments := valuation.RandomAssignments(r, names, numVars, beyond)
		want := valuation.Compile(set).EvalBatchN(assignments, nil, 1)
		valuation.SameBits(t, fmt.Sprintf("trial %d: compiled vs reference", trial), want, valuation.ReferenceEvalBatch(set, numVars, assignments))

		packed, err := polynomial.PackSet(set)
		if err != nil {
			t.Fatal(err)
		}
		if allOnes && packed.Exps() != nil {
			t.Fatalf("trial %d: every exponent is 1 but the packed set has an exponent column", trial)
		}
		if packed.Exps() != nil {
			withExps++
		}
		resident, err := polynomial.BuildSharded(set, polynomial.ShardOptions{TargetMonomials: 8})
		if err != nil {
			t.Fatal(err)
		}
		onDisk, err := polynomial.BuildSharded(set, polynomial.ShardOptions{
			MaxResidentMonomials: max(2, set.Size()/8),
			SpillDir:             t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		spilled += onDisk.SpilledShards()
		var stream bytes.Buffer
		if err := polyio.WriteSetStreamV3(&stream, onDisk, polyio.V3Options{Compress: trial%4 < 2}); err != nil {
			t.Fatal(err)
		}
		indexed, err := polyio.OpenIndexedSet(bytes.NewReader(stream.Bytes()), int64(stream.Len()), names)
		if err != nil {
			t.Fatal(err)
		}
		if names.Len() != numVars {
			t.Fatalf("trial %d: opening the stream interned %d new variables", trial, names.Len()-numVars)
		}

		for _, tc := range []struct {
			name   string
			src    polynomial.SetSource
			packed bool
		}{
			{"set", set, false},
			{"packed", packed, true},
			{"sharded/resident", resident, true},
			{"sharded/spilled", onDisk, true},
			{"indexed", indexed, true},
		} {
			for _, src := range []polynomial.SetSource{tc.src, polynomial.WithContext(ctx, tc.src)} {
				if _, ok := polynomial.PackedShards(src); ok != tc.packed {
					t.Fatalf("%s (%T): hands out packed shards: %v, want %v", tc.name, src, ok, tc.packed)
				}
				for _, w := range []int{1, 2, 8} {
					got, err := valuation.EvalBatchSource(src, assignments, w)
					if err != nil {
						t.Fatalf("trial %d, %s (%T) workers=%d: %v", trial, tc.name, src, w, err)
					}
					valuation.SameBits(t, fmt.Sprintf("trial %d, %s (%T) workers=%d", trial, tc.name, src, w), got, want)
				}
			}
		}
		if budget := onDisk.Options().MaxResidentMonomials; onDisk.PeakResidentMonomials() > budget+largestPoly(set) {
			t.Fatalf("trial %d: peak residency %d over the budget %d", trial, onDisk.PeakResidentMonomials(), budget)
		}
		resident.Close()
		onDisk.Close()
	}
	if spilled < 200 || withExps < 40 {
		t.Fatalf("%d shards spilled and %d sets had an exponent column over all trials: a path was barely exercised", spilled, withExps)
	}
}

// largestPoly returns the monomial count of set's largest polynomial: whole
// polynomials are never split, so that is how far past a budget of a few
// monomials a ShardedSet may go.
func largestPoly(set *polynomial.Set) int {
	n := 0
	for _, p := range set.Polys {
		n = max(n, len(p.Mons))
	}
	return n
}
