package abstraction_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/datagen/telephony"
	"github.com/cobra-prov/cobra/internal/polynomial"
)

// skuTree builds the 3-level 500-leaf SKU tree of BENCHMARK.json's retail
// workloads (20 categories × 5 subcategories × 5 SKUs) and the cut one
// level above the leaves, under which the five SKUs of a subcategory
// merge; subs lists the leaf variables per subcategory.
func skuTree(names *polynomial.Names) (cut abstraction.Cut, subs [][]polynomial.Var) {
	tree := abstraction.NewTree("AllSKUs", names)
	var subNodes []abstraction.NodeID
	for c := 0; c < 20; c++ {
		cat := tree.MustAddChild(tree.Root(), fmt.Sprintf("cat%d", c))
		for s := 0; s < 5; s++ {
			sub := tree.MustAddChild(cat, fmt.Sprintf("sub%d_%d", c, s))
			subNodes = append(subNodes, sub)
			var skus []polynomial.Var
			for k := 0; k < 5; k++ {
				skus = append(skus, tree.Node(tree.MustAddChild(sub, fmt.Sprintf("sku%d_%d_%d", c, s, k))).Var)
			}
			subs = append(subs, skus)
		}
	}
	cut, err := abstraction.NewCut(tree, subNodes...)
	if err != nil {
		panic(err)
	}
	return cut, subs
}

func weekVars(names *polynomial.Names) []polynomial.Var {
	weeks := make([]polynomial.Var, 52)
	for i := range weeks {
		weeks[i] = names.Var(fmt.Sprintf("wk%d", i))
	}
	return weeks
}

// retailShaped builds a seeded set of the shape BENCHMARK.json's retail
// workloads compress — 1000 polynomials (stores) of ≈200 monomials
// coef·sku·week over the SKU tree — and the cut under which the five SKUs
// of a subcategory merge week by week.
func retailShaped() (*polynomial.Set, abstraction.Cut) {
	r := rand.New(rand.NewSource(1))
	names := polynomial.NewNames()
	cut, subs := skuTree(names)
	weeks := weekVars(names)
	set := polynomial.NewSet(names)
	for st := 0; st < 1000; st++ {
		first := r.Intn(len(weeks) - 14 + 1)
		var b polynomial.Builder
		for _, s := range r.Perm(len(subs))[:4] {
			for _, sku := range subs[s] {
				if r.Intn(4) == 0 {
					continue
				}
				for w := first; w < first+14; w++ {
					b.Add(1+float64(r.Intn(9000))/100, polynomial.T(sku), polynomial.T(weeks[w]))
				}
			}
		}
		if err := set.Add(fmt.Sprintf("store%d", st), b.Polynomial()); err != nil {
			panic(err)
		}
	}
	return set, cut
}

// onePolynomial is the shape no BENCHMARK.json workload has: the whole
// provenance in a single polynomial (an aggregate without GROUP BY) —
// 104 000 monomials coef·sku·week·region, five SKUs merging into one — so
// polynomials cannot be the unit of parallelism.
func onePolynomial() (*polynomial.Set, abstraction.Cut) {
	r := rand.New(rand.NewSource(2))
	names := polynomial.NewNames()
	cut, subs := skuTree(names)
	weeks := weekVars(names)
	var b polynomial.Builder
	for reg := 0; reg < 4; reg++ {
		region := names.Var(fmt.Sprintf("region%d", reg))
		for _, skus := range subs {
			for _, sku := range skus {
				for _, wk := range weeks {
					b.Add(1+float64(r.Intn(9000))/100, polynomial.T(sku), polynomial.T(wk), polynomial.T(region))
				}
			}
		}
	}
	set := polynomial.NewSet(names)
	if err := set.Add("total", b.Polynomial()); err != nil {
		panic(err)
	}
	return set, cut
}

// BenchmarkApplySource is the layer benchmark of cut application, in input
// monomials remapped per second, on the two shapes BENCHMARK.json applies
// cuts to — retail (the substitution reorders most monomials and merges
// five into one) and telephony (eleven plans into three groups) — and on
// the one it does not: a single large polynomial.
func BenchmarkApplySource(b *testing.B) {
	retailSet, retailCut := retailShaped()
	oneSet, oneCut := onePolynomial()
	telNames := polynomial.NewNames()
	telSet := telephony.DirectProvenance(telephony.Config{Customers: 100_000}, telNames)
	telCut, err := telephony.PlansTree(telNames).CutOf("Business", "Special", "Standard")
	if err != nil {
		b.Fatal(err)
	}
	shapes := []struct {
		name string
		set  *polynomial.Set
		cut  abstraction.Cut
	}{
		{"retail", retailSet, retailCut},
		{"telephony", telSet, telCut},
		{"one-polynomial", oneSet, oneCut},
	}
	for _, sh := range shapes {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", sh.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					out := polynomial.NewSet(sh.set.Names)
					if err := abstraction.ApplySource(sh.set, out, workers, sh.cut); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.N)*float64(sh.set.Size())/b.Elapsed().Seconds(), "monomials/s")
			})
		}
	}
}
