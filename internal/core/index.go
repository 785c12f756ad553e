package core

import (
	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/parallel"
	"github.com/cobra-prov/cobra/internal/polynomial"
)

// index is the signature index for one abstraction tree over one polynomial
// set. For every monomial containing exactly one tree leaf x, its signature
// is the triple (group index, residual term vector, exponent of x); two
// monomials merge under a cut iff their signatures coincide and their leaves
// map to the same cut node. The index stores, per tree node v, the number of
// distinct signatures among leaves below v — distinct(v) — which makes the
// size of any cut C additive:
//
//	size(C) = fixed + Σ_{u∈C} distinct(u)
//
// where fixed counts monomials with no tree leaf.
type index struct {
	tree  *abstraction.Tree
	fixed int // monomials without any tree leaf

	// distinct[v] = number of distinct signatures under node v.
	distinct []int64
}

// minParallelIndexMons is the shard size below which splitting a scan over
// goroutines costs more in handoff than it saves.
const minParallelIndexMons = 4096

// buildIndex is buildIndexSource over an in-memory set on one goroutine.
func buildIndex(set *polynomial.Set, tree *abstraction.Tree) (*index, error) {
	return buildIndexSource(set, tree, 1)
}

// buildIndexSource is the one signature-index construction every
// compression path shares. A signature embeds its polynomial's index, so
// distinct(v) is a plain sum over polynomials: each polynomial is scanned
// on its own (indexScan.scanPoly) and adds to per-node counters. The
// source is consumed one shard at a time — an in-memory Set presents
// itself as a single shard — and a shard large enough to amortize the pool
// is split into contiguous runs of whole polynomials, one indexScan (its
// own scratch and counters) per run. The counters are summed at the end:
// integer adds, so the index — and everything the DP derives from it — is
// identical for every source representation and worker count. The first
// MultiVarError in scan order wins: shards arrive in order, and within a
// shard each run stops at its first offender and the lowest run reports.
func buildIndexSource(src polynomial.SetSource, tree *abstraction.Tree, workers int) (*index, error) {
	workers = parallel.Normalize(workers)
	parent := parentTable(tree)
	scans := make([]indexScan, workers)
	// ForEachShardN overlaps shard decode with the scan on sources that
	// support it; the callback still runs shard-at-a-time in shard order.
	err := polynomial.ForEachShardN(src, workers, func(_, _ int, s *polynomial.Set) error {
		bounds := polyRuns(s, workers)
		parallel.ForEach(workers, len(bounds)-1, func(i int) {
			sc := &scans[i]
			if sc.distinct == nil {
				sc.tree, sc.parent = tree, parent
				sc.distinct = make([]int64, tree.Len())
				sc.stamp = make([]uint64, tree.Len())
			}
			sc.err = sc.scan(s, bounds[i], bounds[i+1])
		})
		for i := range bounds[1:] {
			if scans[i].err != nil {
				return scans[i].err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	idx := &index{tree: tree, distinct: make([]int64, tree.Len())}
	for i := range scans {
		idx.fixed += scans[i].fixed
		for v, d := range scans[i].distinct {
			idx.distinct[v] += d
		}
	}
	return idx, nil
}

// parentTable flattens the parent links the scan walks, indexed by node.
func parentTable(tree *abstraction.Tree) []abstraction.NodeID {
	parent := make([]abstraction.NodeID, tree.Len())
	for v := range parent {
		parent[v] = tree.Node(abstraction.NodeID(v)).Parent
	}
	return parent
}

// polyRuns splits the shard's polynomials into at most workers contiguous
// non-empty runs of near-equal monomial count, returned as boundaries
// (run i is polynomials [b[i], b[i+1])). A shard too small to be worth
// the pool, or workers == 1, is a single run.
func polyRuns(s *polynomial.Set, workers int) []int {
	total := s.Size()
	if workers == 1 || total < minParallelIndexMons {
		return []int{0, len(s.Polys)}
	}
	bounds := make([]int, 1, workers+1)
	before := 0 // monomials in polynomials [0, pi)
	for pi, p := range s.Polys {
		if len(bounds) < workers && before >= len(bounds)*total/workers {
			bounds = append(bounds, pi)
		}
		before += len(p.Mons)
	}
	return append(bounds, len(s.Polys))
}

// sigRec is one leaf-bearing monomial of the polynomial being scanned.
type sigRec struct {
	hash uint64 // of (residual term vector, leaf exponent)
	mon  int32  // index of the monomial within its polynomial
	at   int32  // position of the leaf term within the monomial
	leaf abstraction.NodeID
	next int32 // next monomial of the same signature, -1 ends the chain
}

// indexScan is one goroutine's share of an index build: its partial
// counters, plus scratch sized by the largest polynomial it has met and
// reused for every polynomial of every shard it scans.
type indexScan struct {
	tree   *abstraction.Tree    // its Var → leaf table; shared, read-only
	parent []abstraction.NodeID // parentTable; shared, read-only

	fixed    int
	distinct []int64
	err      error

	// stamp[v] == epoch: v is already counted for the signature whose
	// leaves are being walked. A new signature is a new epoch, so the
	// stamps never need clearing.
	stamp []uint64
	epoch uint64

	recs  []sigRec
	table []int32 // open-addressed; 1 + index into recs of a signature's first monomial, 0 = empty
	heads []int32 // first monomial of each signature, in order of appearance
}

// scan indexes polynomials [lo, hi) of the shard.
func (sc *indexScan) scan(s *polynomial.Set, lo, hi int) error {
	for pi := lo; pi < hi; pi++ {
		if err := sc.scanPoly(s.Keys[pi], s.Polys[pi].Mons, s.Names); err != nil {
			return err
		}
	}
	return nil
}

// scanPoly adds one polynomial's signatures to the counters, in three
// passes over scratch. (1) Find each monomial's tree leaf and hash its
// residual — the terms other than the leaf's, in order, so the hash does
// not depend on where the leaf term sits — together with the leaf
// exponent. (2) Group the leaf-bearing monomials by signature: a hash
// table over this polynomial only, every hash tie settled by comparing
// exponents and residuals term by term, each signature's monomials
// chained from its first. (3) For each signature, walk from every one of
// its leaves towards the root, counting each node once: the walk stops at
// the first node already stamped for this signature, so the work is the
// size of the union of the paths.
func (sc *indexScan) scanPoly(key string, mons []polynomial.Monomial, names *polynomial.Names) error {
	recs := sc.recs[:0]
	for mi, m := range mons {
		at, leaf, h := -1, abstraction.NoNode, uint64(0)
		for ti, t := range m.Terms {
			if id := sc.tree.LeafByVar(t.Var); id != abstraction.NoNode {
				if at >= 0 {
					return &MultiVarError{Key: key, Mono: monoString(m, names)}
				}
				at, leaf = ti, id
				continue
			}
			h = polynomial.Mix(h, uint64(uint32(t.Var))<<32|uint64(uint32(t.Exp)))
		}
		if at < 0 {
			sc.fixed++
			continue
		}
		lt := m.Terms[at]
		recs = append(recs, sigRec{
			hash: polynomial.Mix(h, uint64(uint32(lt.Exp))),
			mon:  int32(mi),
			at:   int32(at),
			leaf: leaf,
			next: -1,
		})
	}
	sc.recs = recs

	size := 4
	for size < 2*len(recs) {
		size <<= 1
	}
	if cap(sc.table) < size {
		sc.table = make([]int32, size)
	}
	table := sc.table[:size]
	clear(table)
	mask := uint64(size - 1)
	heads := sc.heads[:0]
	for i := range recs {
		r := &recs[i]
		for slot := r.hash & mask; ; slot = (slot + 1) & mask {
			j := table[slot]
			if j == 0 {
				table[slot] = int32(i + 1)
				heads = append(heads, int32(i))
				break
			}
			if first := &recs[j-1]; first.hash == r.hash && sameSignature(mons, first, r) {
				r.next, first.next = first.next, int32(i)
				break
			}
		}
	}
	sc.heads = heads

	for _, first := range heads {
		sc.epoch++
		for i := first; i >= 0; i = recs[i].next {
			for v := recs[i].leaf; v != abstraction.NoNode && sc.stamp[v] != sc.epoch; v = sc.parent[v] {
				sc.stamp[v] = sc.epoch
				sc.distinct[v]++
			}
		}
	}
	return nil
}

// sameSignature reports whether two leaf-bearing monomials of one
// polynomial have equal leaf exponents and equal residual term vectors.
func sameSignature(mons []polynomial.Monomial, a, b *sigRec) bool {
	ta, tb := mons[a.mon].Terms, mons[b.mon].Terms
	if len(ta) != len(tb) || ta[a.at].Exp != tb[b.at].Exp {
		return false
	}
	for i, j := 0, 0; i < len(ta); {
		switch {
		case i == int(a.at):
			i++
		case j == int(b.at):
			j++
		case ta[i] != tb[j]:
			return false
		default:
			i++
			j++
		}
	}
	return true
}

// monoString renders one monomial the way Polynomial.String does.
func monoString(m polynomial.Monomial, names *polynomial.Names) string {
	return polynomial.Polynomial{Mons: []polynomial.Monomial{m}}.String(names)
}

// cutSize returns the provenance size after applying a cut, using the
// additive formula.
func (idx *index) cutSize(c abstraction.Cut) int64 {
	s := int64(idx.fixed)
	for _, id := range c.Nodes {
		s += idx.distinct[id]
	}
	return s
}

// leafCount returns the number of leaves under each node (indexed by node).
func leafCounts(tree *abstraction.Tree) []int {
	counts := make([]int, tree.Len())
	for _, v := range tree.Postorder() {
		n := tree.Node(v)
		if len(n.Children) == 0 {
			counts[v] = 1
			continue
		}
		for _, c := range n.Children {
			counts[v] += counts[c]
		}
	}
	return counts
}
