package main

import (
	"fmt"
	"math/rand"

	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/polynomial"
)

// retailConfig sizes the synthetic retail provenance: one polynomial per
// store, monomials coef·sku·week. Stores stock whole subcategories, so
// sibling SKU leaves co-occur and the optimal cut is an interior one.
type retailConfig struct {
	Stores        int
	Categories    int // children of the SKU root
	SubPerCat     int // subcategories per category
	SKUsPerSub    int // leaves per subcategory
	SubsPerStore  int // subcategories a store stocks, from two categories
	WeeksPerStore int // contiguous selling season, out of 52
}

// retailFull is the -scale full instance: 1000 stores, a 500-leaf 3-level
// SKU tree and ≈200k monomials.
var retailFull = retailConfig{Stores: 1000, Categories: 20, SubPerCat: 5, SKUsPerSub: 5, SubsPerStore: 4, WeeksPerStore: 14}

// retailSmoke is the -scale smoke instance.
var retailSmoke = retailConfig{Stores: 40, Categories: 4, SubPerCat: 3, SKUsPerSub: 4, SubsPerStore: 3, WeeksPerStore: 4}

type retail struct {
	names *polynomial.Names
	set   *polynomial.Set
	skus  *abstraction.Tree // root → category → subcategory → sku
	weeks *abstraction.Tree // year → quarter → month → week
}

// skuCarryProb is the chance a store carries one SKU of a subcategory it
// stocks: below 1 so leaves are not interchangeable and the DP has ties to
// break, high enough that siblings still co-occur.
const skuCarryProb = 0.75

// generateRetail builds the instance from the seed alone; the same seed
// yields byte-identical polynomials.
func generateRetail(cfg retailConfig, seed int64) (*retail, error) {
	r := rand.New(rand.NewSource(seed))
	names := polynomial.NewNames()

	skuTree := abstraction.NewTree("AllSKUs", names)
	// skuVars[cat][sub] lists the leaf variables of one subcategory.
	skuVars := make([][][]polynomial.Var, cfg.Categories)
	for c := range skuVars {
		skuVars[c] = make([][]polynomial.Var, cfg.SubPerCat)
		for s := range skuVars[c] {
			for k := 0; k < cfg.SKUsPerSub; k++ {
				leaf := fmt.Sprintf("sku_%d_%d_%d", c, s, k)
				if _, err := skuTree.AddPath(fmt.Sprintf("cat_%d", c), fmt.Sprintf("sub_%d_%d", c, s), leaf); err != nil {
					return nil, err
				}
				skuVars[c][s] = append(skuVars[c][s], names.Var(leaf))
			}
		}
	}
	weekTree := abstraction.NewTree("Year", names)
	weekVars := make([]polynomial.Var, 52)
	for w := range weekVars {
		month := w * 12 / 52
		leaf := fmt.Sprintf("wk_%02d", w+1)
		if _, err := weekTree.AddPath(fmt.Sprintf("qtr_%d", month/3+1), fmt.Sprintf("mon_%02d", month+1), leaf); err != nil {
			return nil, err
		}
		weekVars[w] = names.Var(leaf)
	}

	set := polynomial.NewSet(names)
	set.Grow(cfg.Stores)
	for st := 0; st < cfg.Stores; st++ {
		catA := r.Intn(cfg.Categories)
		catB := (catA + 1 + r.Intn(cfg.Categories-1)) % cfg.Categories
		firstWeek := r.Intn(52 - cfg.WeeksPerStore + 1)
		var b polynomial.Builder
		b.Grow(cfg.SubsPerStore * cfg.SKUsPerSub * cfg.WeeksPerStore)
		// Half the stocked subcategories come from each category:
		// consecutive ones from a seeded start, so none repeats.
		starts := [2]int{r.Intn(cfg.SubPerCat), r.Intn(cfg.SubPerCat)}
		for i := 0; i < cfg.SubsPerStore; i++ {
			cat := [2]int{catA, catB}[i%2]
			sub := (starts[i%2] + i/2) % cfg.SubPerCat
			for _, sku := range skuVars[cat][sub] {
				if r.Float64() >= skuCarryProb {
					continue
				}
				for w := firstWeek; w < firstWeek+cfg.WeeksPerStore; w++ {
					b.Add(1+float64(r.Intn(9000))/100, polynomial.T(sku), polynomial.T(weekVars[w]))
				}
			}
		}
		if err := set.Add(fmt.Sprintf("store_%04d", st), b.Polynomial()); err != nil {
			return nil, err
		}
	}
	return &retail{names: names, set: set, skus: skuTree, weeks: weekTree}, nil
}
