package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/datagen/telephony"
	"github.com/cobra-prov/cobra/internal/polynomial"
)

// retailShaped builds a seeded set of the shape BENCHMARK.json's retail
// workloads compress: 1000 polynomials (stores) of ≈200 monomials
// coef·sku·week, each store stocking four subcategories of a 3-level
// 500-leaf SKU tree over a 14-week season, so one polynomial holds 14
// signatures shared by ≈15 leaves under two categories.
func retailShaped() (*polynomial.Set, *abstraction.Tree) {
	r := rand.New(rand.NewSource(1))
	names := polynomial.NewNames()
	tree := abstraction.NewTree("AllSKUs", names)
	var subs [][]polynomial.Var // leaf variables per subcategory
	for c := 0; c < 20; c++ {
		cat := tree.MustAddChild(tree.Root(), fmt.Sprintf("cat%d", c))
		for s := 0; s < 5; s++ {
			sub := tree.MustAddChild(cat, fmt.Sprintf("sub%d_%d", c, s))
			var skus []polynomial.Var
			for k := 0; k < 5; k++ {
				skus = append(skus, tree.Node(tree.MustAddChild(sub, fmt.Sprintf("sku%d_%d_%d", c, s, k))).Var)
			}
			subs = append(subs, skus)
		}
	}
	weeks := make([]polynomial.Var, 52)
	for i := range weeks {
		weeks[i] = names.Var(fmt.Sprintf("wk%d", i))
	}
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
	return set, tree
}

// BenchmarkBuildIndex is the layer benchmark of the signature index — the
// scan every Compress, Frontier, Sweep and forest descent starts with — in
// monomials scanned per second, on benchShapes at one and two workers.
func BenchmarkBuildIndex(b *testing.B) {
	for _, sh := range benchShapes() {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", sh.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if _, err := buildIndexSource(sh.set, sh.tree, workers); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.N)*float64(sh.set.Size())/b.Elapsed().Seconds(), "monomials/s")
			})
		}
	}
}

// benchShape is one input of this package's layer rows.
type benchShape struct {
	name string
	set  *polynomial.Set
	tree *abstraction.Tree
}

// benchShapes are the two shapes BENCHMARK.json compresses, which every
// layer row of this package runs over: retail (many leaves, few signatures
// per polynomial) and telephony (11 leaves, every variable in every
// polynomial).
func benchShapes() []benchShape {
	retailSet, retailTree := retailShaped()
	telNames := polynomial.NewNames()
	telSet := telephony.DirectProvenance(telephony.Config{Customers: 100_000}, telNames)
	return []benchShape{
		{"retail", retailSet, retailTree},
		{"telephony", telSet, telephony.PlansTree(telNames)},
	}
}

// BenchmarkDPSingleTree is the layer row behind the benchmark's
// core.dp_ms: one optimal-cut computation (signature index, knapsack DP,
// reconstruction) at one worker, in monomials per second. The bound is the
// frontier's middle point, so the cut is neither the leaves nor the root.
func BenchmarkDPSingleTree(b *testing.B) {
	for _, sh := range benchShapes() {
		curve, err := FrontierSourceN(sh.set, sh.tree, 1)
		if err != nil {
			b.Fatal(err)
		}
		bound := curve[len(curve)/2].MinSize
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := DPSingleTreeSource(sh.set, sh.tree, bound, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*float64(sh.set.Size())/b.Elapsed().Seconds(), "monomials/s")
		})
	}
}

// BenchmarkFrontier is the layer row behind core.frontier_ms: the whole
// size/expressiveness curve (one index and DP, a cut reconstructed for
// every feasible k) at one worker, in monomials per second.
func BenchmarkFrontier(b *testing.B) {
	for _, sh := range benchShapes() {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := FrontierSourceN(sh.set, sh.tree, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*float64(sh.set.Size())/b.Elapsed().Seconds(), "monomials/s")
		})
	}
}
