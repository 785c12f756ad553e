package engine

import (
	"math"
	"strings"
	"testing"

	"github.com/cobra-prov/cobra/internal/relation"
)

// TestKeyTableHashTies forces every key onto one 64-bit hash: the table
// degenerates to a single probe chain, and only the exact cell comparison
// tells the keys apart. Ids must still be first-seen order, across the
// table's growth.
func TestKeyTableHashTies(t *testing.T) {
	var kt keyTable
	cols := columns(2)
	key := func(i int) []relation.Value {
		return []relation.Value{relation.Int(int64(i / 7)), relation.Str(string(rune('a' + i%7)))}
	}
	const n, tie = 300, uint64(42)
	for i := 0; i < n; i++ {
		if id, seen := kt.lookup(tie, key(i), cols, true); seen || id != i {
			t.Fatalf("insert %d: id %d seen %v", i, id, seen)
		}
	}
	for i := n - 1; i >= 0; i-- {
		if id, seen := kt.lookup(tie, key(i), cols, true); !seen || id != i {
			t.Fatalf("lookup %d: id %d seen %v", i, id, seen)
		}
		if got := kt.key(i); got[0].I != int64(i/7) || got[1].S != key(i)[1].S {
			t.Fatalf("key(%d) = %v", i, got)
		}
	}
	if _, seen := kt.lookup(tie, []relation.Value{relation.Int(0), relation.Str("zz")}, cols, false); seen {
		t.Fatal("absent key found on a shared hash")
	}
	if kt.len() != n {
		t.Fatalf("len = %d", kt.len())
	}
}

// TestKeyEquivalence: keys are equal exactly when Compare says 0 on every
// cell, and equal keys hash equal — across INT/FLOAT, the two zeros, NULL.
func TestKeyEquivalence(t *testing.T) {
	vals := []relation.Value{
		relation.Null(), relation.Int(0), relation.Float(0), relation.Float(math.Copysign(0, -1)),
		relation.Int(2), relation.Float(2), relation.Float(2.5), relation.Int(-3), relation.Float(1 << 40), relation.Int(1 << 40),
		relation.Str(""), relation.Str("2"), relation.Bool(false), relation.Bool(true),
	}
	cols := columns(1)
	for _, a := range vals {
		for _, b := range vals {
			c, err := a.Compare(b)
			want := err == nil && c == 0
			ka, kb := []relation.Value{a}, []relation.Value{b}
			if got := sameKey(ka, kb, cols); got != want {
				t.Errorf("sameKey(%s %s, %s %s) = %v, Compare says %v", a.Kind, a, b.Kind, b, got, want)
			}
			if want && hashKey(ka, cols) != hashKey(kb, cols) {
				t.Errorf("%s %s and %s %s are one key with two hashes", a.Kind, a, b.Kind, b)
			}
		}
	}
	// The hash must spread small integers over the low bits a table masks.
	seen := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		seen[hashKey([]relation.Value{relation.Int(int64(i))}, cols)&63] = true
	}
	if len(seen) < 32 {
		t.Fatalf("64 consecutive ints fall into %d of 64 slots", len(seen))
	}
}

// TestHashJoinKeepAndOrder: a pruned join emits only the kept columns, in
// probe order × build insertion order, with duplicate build keys, a NULL
// key on each side and INT keys meeting FLOAT keys.
func TestHashJoinKeepAndOrder(t *testing.T) {
	l := relation.NewRelation("l", relation.NewSchema(relation.Column{Name: "k"}, relation.Column{Name: "a"}))
	l.Append(relation.Int(2), relation.Str("l0"))
	l.Append(relation.Null(), relation.Str("l1"))
	l.Append(relation.Int(1), relation.Str("l2"))
	l.Append(relation.Int(2), relation.Str("l3"))
	r := relation.NewRelation("r", relation.NewSchema(relation.Column{Name: "k"}, relation.Column{Name: "b"}, relation.Column{Name: "c"}))
	r.Append(relation.Float(2), relation.Str("r0"), relation.Int(10))
	r.Append(relation.Float(1), relation.Str("r1"), relation.Int(11))
	r.Append(relation.Null(), relation.Str("r2"), relation.Int(12))
	r.Append(relation.Int(2), relation.Str("r3"), relation.Int(13))
	j, err := NewHashJoin(NewScan(l, ""), NewScan(r, ""), []int{0}, []int{0}, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := Describe(j); !strings.HasPrefix(got, "HashJoin on l.k = r.k keep [l.a, r.b]\n") {
		t.Fatalf("describe: %s", got)
	}
	for round := 0; round < 2; round++ { // a re-Open rebuilds from scratch
		out, err := Collect("out", j)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, row := range out.Rows {
			if len(row.Values) != 2 {
				t.Fatalf("row width %d", len(row.Values))
			}
			got = append(got, row.Values[0].S+row.Values[1].S)
		}
		want := []string{"l0r0", "l0r3", "l2r1", "l3r0", "l3r3"}
		if len(got) != len(want) {
			t.Fatalf("rows = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rows = %v, want %v", got, want)
			}
		}
	}
}
