package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/polynomial"
)

// refIndex is the signature index as it was built before the map-free
// scan: every signature rendered to a string key (polynomial index, leaf
// exponent, residual terms) and interned in one global map, one signature-id
// set per leaf, and per-node counts by bottom-up small-to-large set union.
// It shares nothing with indexScan and is kept as the reference the
// generated-input oracle compares against. On a multi-leaf monomial it
// returns the first offender in scan order as (key, monomial).
func refIndex(src polynomial.SetSource, tree *abstraction.Tree) (fixed int, distinct []int64, err error) {
	sigIDs := make(map[string]int32)
	perLeaf := make(map[abstraction.NodeID]map[int32]struct{})
	var keyBuf []byte
	err = src.ForEachShard(func(_, firstPoly int, s *polynomial.Set) error {
		for pi, p := range s.Polys {
			for _, m := range p.Mons {
				leaf, leafExp := abstraction.NoNode, int32(0)
				for _, t := range m.Terms {
					if id := tree.LeafByVar(t.Var); id != abstraction.NoNode {
						if leaf != abstraction.NoNode {
							return &MultiVarError{Key: s.Keys[pi], Mono: monoString(m, s.Names)}
						}
						leaf, leafExp = id, t.Exp
					}
				}
				if leaf == abstraction.NoNode {
					fixed++
					continue
				}
				keyBuf = binary.AppendUvarint(keyBuf[:0], uint64(firstPoly+pi))
				keyBuf = binary.AppendUvarint(keyBuf, uint64(uint32(leafExp)))
				for _, t := range m.Terms {
					if t.Var == tree.Node(leaf).Var {
						continue
					}
					keyBuf = binary.AppendUvarint(keyBuf, uint64(uint32(t.Var)))
					keyBuf = binary.AppendUvarint(keyBuf, uint64(uint32(t.Exp)))
				}
				sid, ok := sigIDs[string(keyBuf)]
				if !ok {
					sid = int32(len(sigIDs))
					sigIDs[string(keyBuf)] = sid
				}
				if perLeaf[leaf] == nil {
					perLeaf[leaf] = make(map[int32]struct{})
				}
				perLeaf[leaf][sid] = struct{}{}
			}
		}
		return nil
	})
	if err != nil {
		return 0, nil, err
	}

	distinct = make([]int64, tree.Len())
	sets := make([]map[int32]struct{}, tree.Len())
	for _, v := range tree.Postorder() {
		n := tree.Node(v)
		if len(n.Children) == 0 {
			sets[v] = perLeaf[v]
			distinct[v] = int64(len(sets[v]))
			continue
		}
		// Small-to-large: merge all children into the largest child's set.
		var acc map[int32]struct{}
		for _, c := range n.Children {
			if len(sets[c]) > len(acc) {
				acc = sets[c]
			}
		}
		if acc == nil {
			acc = map[int32]struct{}{}
		}
		for _, c := range n.Children {
			for id := range sets[c] {
				acc[id] = struct{}{}
			}
			sets[c] = nil
		}
		sets[v] = acc
		distinct[v] = int64(len(acc))
	}
	return fixed, distinct, nil
}

// byteSource feeds a rand.Rand from a fuzz input, so the fuzzer's byte
// mutations steer the generator's decisions; past the end it yields zeros
// (every generator loop is bounded by a drawn count, so it still ends).
type byteSource struct{ data []byte }

func (b *byteSource) Seed(int64) {}

func (b *byteSource) Int63() int64 {
	var w [8]byte
	b.data = b.data[copy(w[:], b.data):]
	return int64(binary.LittleEndian.Uint64(w[:]) >> 1)
}

// oracleInstance draws a tree and a set aimed at the places a signature
// scan can go wrong: context variables interned before, between and after
// the tree's nodes (so leaf Var ids sit both below and above residual Var
// ids and the leaf term lands anywhere in a term vector), leaf exponents
// 1–4, small context pools (so equal residuals recur under different
// leaves and in different polynomials), leafless and constant monomials,
// empty polynomials, inner-node variables used as context, and polynomials
// assembled without canonicalization (duplicate monomials kept). minMons
// pads the set past the parallel threshold when > 0; plant adds one or two
// monomials holding two leaves of the tree.
func oracleInstance(r *rand.Rand, minMons int, plant bool) (*polynomial.Set, *abstraction.Tree) {
	names := polynomial.NewNames()
	var ctx []polynomial.Var
	addCtx := func(n int) {
		for i := 0; i < n; i++ {
			ctx = append(ctx, names.Var(fmt.Sprintf("c%d", len(ctx))))
		}
	}
	addCtx(1 + r.Intn(4))
	tree := abstraction.NewTree("R", names)
	var leaves, inner []polynomial.Var
	var grow func(parent abstraction.NodeID, depth int)
	grow = func(parent abstraction.NodeID, depth int) {
		for c, kids := 0, 1+r.Intn(4); c < kids; c++ {
			id := tree.MustAddChild(parent, fmt.Sprintf("n%d", tree.Len()))
			if r.Intn(3) == 0 {
				addCtx(1)
			}
			if depth > 0 && r.Intn(2) == 0 {
				inner = append(inner, tree.Node(id).Var)
				grow(id, depth-1)
			} else {
				leaves = append(leaves, tree.Node(id).Var)
			}
		}
	}
	grow(tree.Root(), r.Intn(3))
	addCtx(1 + r.Intn(4))

	residual := func() []polynomial.Term {
		var ts []polynomial.Term
		for n := r.Intn(4); n > 0; n-- {
			ts = append(ts, polynomial.TExp(ctx[r.Intn(len(ctx))], int32(1+r.Intn(4))))
		}
		if len(inner) > 0 && r.Intn(12) == 0 {
			ts = append(ts, polynomial.T(inner[r.Intn(len(inner))]))
		}
		return ts
	}
	leafTerm := func() polynomial.Term {
		return polynomial.TExp(leaves[r.Intn(len(leaves))], int32(1+r.Intn(4)))
	}
	monomial := func() polynomial.Monomial {
		coef := float64(1 + r.Intn(9))
		switch r.Intn(8) {
		case 0:
			return polynomial.Mono(coef) // constant
		case 1:
			return polynomial.Mono(coef, residual()...) // leafless
		default:
			return polynomial.Mono(coef, append(residual(), leafTerm())...)
		}
	}

	set := polynomial.NewSet(names)
	for pi, polys := 0, 1+r.Intn(6); pi < polys || set.Size() < minMons; pi++ {
		var mons []polynomial.Monomial
		size := r.Intn(40)
		if minMons > 0 {
			size = r.Intn(2*minMons/3 + 1)
		}
		if r.Intn(6) == 0 {
			size = 0 // empty polynomial
		}
		for len(mons) < size {
			m := monomial()
			mons = append(mons, m)
			if r.Intn(10) == 0 {
				mons = append(mons, m.Clone()) // non-canonical duplicate
			}
		}
		p := polynomial.Polynomial{Mons: mons}
		if r.Intn(2) == 0 {
			p = polynomial.New(mons...)
		}
		set.Add(fmt.Sprintf("g%d", pi), p)
	}
	if plant && len(leaves) > 1 {
		for n := 1 + r.Intn(2); n > 0; n-- {
			pi := r.Intn(set.Len())
			a := r.Intn(len(leaves))
			b := (a + 1 + r.Intn(len(leaves)-1)) % len(leaves)
			bad := polynomial.Mono(float64(2+n), append(residual(), polynomial.T(leaves[a]), polynomial.TExp(leaves[b], 2))...)
			mons := append([]polynomial.Monomial(nil), set.Polys[pi].Mons...)
			at := r.Intn(len(mons) + 1)
			mons = append(mons[:at], append([]polynomial.Monomial{bad}, mons[at:]...)...)
			set.Polys[pi] = polynomial.Polynomial{Mons: mons}
		}
	}
	return set, tree
}

// checkIndexOracle draws one instance and asserts that buildIndexSource
// agrees with refIndex — fixed, every distinct(v), or the same first
// MultiVarError — for Workers {1, 2, 8} over the Set, its packed view and
// a ShardedSet that spills under a small budget.
func checkIndexOracle(t *testing.T, label string, r *rand.Rand, minMons int) {
	t.Helper()
	set, tree := oracleInstance(r, minMons, r.Intn(4) == 0)
	ps, err := polynomial.PackSet(set)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := polynomial.BuildSharded(set, polynomial.ShardOptions{
		MaxResidentMonomials: max(2, set.Size()/3),
		SpillDir:             t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()

	sources := []struct {
		name string
		src  polynomial.SetSource
	}{{"set", set}, {"packed", ps.View()}, {"sharded", ss}}
	for _, s := range sources {
		wantFixed, wantDistinct, wantErr := refIndex(s.src, tree)
		for _, w := range workerTable {
			ctx := fmt.Sprintf("%s: %s workers=%d (%d polys, %d mons, %d nodes)", label, s.name, w, set.Len(), set.Size(), tree.Len())
			idx, err := buildIndexSource(s.src, tree, w)
			if wantErr != nil {
				var want, got *MultiVarError
				if !errors.As(wantErr, &want) {
					t.Fatalf("%s: reference failed: %v", ctx, wantErr)
				}
				if !errors.As(err, &got) || *got != *want {
					t.Fatalf("%s: error %v, want %v", ctx, err, wantErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			if idx.fixed != wantFixed {
				t.Fatalf("%s: fixed = %d, want %d", ctx, idx.fixed, wantFixed)
			}
			for v, want := range wantDistinct {
				if idx.distinct[v] != want {
					t.Fatalf("%s: distinct(%s) = %d, want %d", ctx, tree.Node(abstraction.NodeID(v)).Name, idx.distinct[v], want)
				}
			}
		}
	}
}

// TestIndexOracle runs the oracle on 320 seeded instances, every eighth
// one padded past minParallelIndexMons so the per-run scans and their
// summation are exercised, not only the single-run path.
func TestIndexOracle(t *testing.T) {
	for seed := int64(0); seed < 320; seed++ {
		minMons := 0
		if seed%8 == 7 {
			minMons = minParallelIndexMons + 500
		}
		checkIndexOracle(t, fmt.Sprintf("seed %d", seed), rand.New(rand.NewSource(seed)), minMons)
	}
}

// FuzzIndexOracle drives the same oracle from fuzz bytes (CI fuzz-smoke).
func FuzzIndexOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("signature index oracle: leaves below and above the context"))
	f.Add([]byte{0xff, 0x10, 0x80, 0x03, 0x7f, 0xc4, 0x21, 0x9a, 0x55, 0xe0, 0x0b, 0x66, 0xd2, 0x3c, 0x91, 0x48})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkIndexOracle(t, "fuzz", rand.New(&byteSource{data: data}), 0)
	})
}

// TestSameSignatureExact checks the comparison that settles hash ties
// against the reference key encoding, on pairs a 64-bit hash would never
// bring together in the oracle: every pair of leaf-bearing monomials of a
// generated polynomial, whatever their hashes.
func TestSameSignatureExact(t *testing.T) {
	refKey := func(m polynomial.Monomial, at int32) string {
		key := binary.AppendUvarint(nil, uint64(uint32(m.Terms[at].Exp)))
		for i, t := range m.Terms {
			if int32(i) != at {
				key = binary.AppendUvarint(key, uint64(uint32(t.Var)))
				key = binary.AppendUvarint(key, uint64(uint32(t.Exp)))
			}
		}
		return string(key)
	}
	equal, pairs := 0, 0
	for seed := int64(0); seed < 60; seed++ {
		set, tree := oracleInstance(rand.New(rand.NewSource(seed)), 0, false)
		for _, p := range set.Polys {
			var recs []sigRec
			for mi, m := range p.Mons {
				for ti, term := range m.Terms {
					if tree.LeafByVar(term.Var) != abstraction.NoNode {
						recs = append(recs, sigRec{mon: int32(mi), at: int32(ti)})
					}
				}
			}
			for i := range recs {
				for j := range recs {
					a, b := &recs[i], &recs[j]
					want := refKey(p.Mons[a.mon], a.at) == refKey(p.Mons[b.mon], b.at)
					if got := sameSignature(p.Mons, a, b); got != want {
						t.Fatalf("seed %d: sameSignature(%s, %s) = %v, want %v", seed,
							monoString(p.Mons[a.mon], set.Names), monoString(p.Mons[b.mon], set.Names), got, want)
					}
					pairs++
					if want && i != j {
						equal++
					}
				}
			}
		}
	}
	if equal == 0 || equal == pairs {
		t.Fatalf("generator produced %d equal pairs of %d", equal, pairs)
	}
}
