package engine

import (
	"encoding/binary"
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
		if got := kt.key(i); got[0].I() != int64(i/7) || got[1].S() != key(i)[1].S() {
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
				t.Errorf("sameKey(%s %s, %s %s) = %v, Compare says %v", a.Kind(), a, b.Kind(), b, got, want)
			}
			if want && hashKey(ka, cols) != hashKey(kb, cols) {
				t.Errorf("%s %s and %s %s are one key with two hashes", a.Kind(), a, b.Kind(), b)
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
			got = append(got, row.Values[0].S()+row.Values[1].S())
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

// TestBigIntKeysExact: INT keys above 2^53, where neighbours share one
// float64 (and so one hash), are distinct keys to a hash join and a GROUP
// BY — they used to compare as floats and fall together — while
// an INT key still meets the FLOAT key it rounds to.
func TestBigIntKeysExact(t *testing.T) {
	const big = int64(1) << 53
	l := relation.NewRelation("l", relation.NewSchema(relation.Column{Name: "k"}, relation.Column{Name: "a"}))
	for i, k := range []int64{big, big + 1, big + 2, big + 1} {
		l.Append(relation.Int(k), relation.Int(int64(i)))
	}
	r := relation.NewRelation("r", relation.NewSchema(relation.Column{Name: "k"}, relation.Column{Name: "b"}))
	r.Append(relation.Int(big+1), relation.Str("r0"))
	r.Append(relation.Int(big), relation.Str("r1"))
	r.Append(relation.Float(float64(big)), relation.Str("r2")) // = Int(big) and, as float64, Int(big+1)
	if hashKey(l.Rows[0].Values, []int{0}) != hashKey(l.Rows[1].Values, []int{0}) {
		t.Fatal("2^53 and 2^53+1 no longer share a hash: the test does not reach the tie")
	}

	j, err := NewHashJoin(NewScan(l, ""), NewScan(r, ""), []int{0}, []int{0}, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect("out", j)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, row := range out.Rows {
		got = append(got, row.Values[0].String()+row.Values[1].S())
	}
	// Build keys in first-seen order: Int(big+1), Int(big); FLOAT 2^53 is
	// Compare-equal to both and joins the first it meets.
	if want := "0r1 1r0 1r2 3r0 3r2"; strings.Join(got, " ") != want {
		t.Fatalf("join rows = %v, want %s", got, want)
	}

	g, err := NewGroupBy(NewScan(l, ""), []Expr{&ColRef{Idx: 0, Name: "k"}}, []string{"k"}, []AggSpec{{Kind: AggCount, Name: "n"}})
	if err != nil {
		t.Fatal(err)
	}
	if out, err = Collect("out", g); err != nil {
		t.Fatal(err)
	}
	got = got[:0]
	for _, row := range out.Rows {
		got = append(got, row.Values[0].String()+":"+row.Values[1].String())
	}
	if want := "9007199254740992:1 9007199254740993:2 9007199254740994:1"; strings.Join(got, " ") != want {
		t.Fatalf("groups = %v, want %s", got, want)
	}
}

// keyCell draws a concrete cell from eight bytes: the kinds a key may hold,
// biased towards the values where kinds meet — small integers as INT and
// FLOAT, the two zeros, NaN, integers around 2^53 and 2^63, "" and NULL.
func keyCell(b []byte) relation.Value {
	bits := binary.LittleEndian.Uint64(b)
	small := int64(bits>>8)%5 - 2
	switch b[0] % 12 {
	case 0:
		return relation.Null()
	case 1:
		return relation.Int(small)
	case 2:
		return relation.Float(float64(small))
	case 3:
		return relation.Float(math.Copysign(0, -1))
	case 4:
		return relation.Float(math.NaN())
	case 5:
		return relation.Int(1<<53 + small)
	case 6:
		return relation.Float(float64(int64(1)<<53 + small))
	case 7:
		return relation.Int(math.MaxInt64 + small - 2)
	case 8:
		return relation.Float(math.Float64frombits(bits))
	case 9:
		return relation.Str([]string{"", "a", "ab", "1"}[bits>>8%4])
	case 10:
		return relation.Bool(bits>>8%2 == 1)
	}
	return relation.Int(int64(bits))
}

// FuzzKeyContract checks what keyTable's comment states about a pair of
// concrete cells: they are one key exactly when Compare says 0, one key has
// one hash, and Compare is antisymmetric with an error on one side exactly
// when there is one on the other.
func FuzzKeyContract(f *testing.F) {
	for _, seed := range [][]byte{
		{1, 2, 0, 0, 0, 0, 0, 0, 2, 2, 0, 0, 0, 0, 0, 0},       // INT 0 and FLOAT 0
		{5, 3, 0, 0, 0, 0, 0, 0, 5, 4, 0, 0, 0, 0, 0, 0},       // 2^53+1 and 2^53+2
		{5, 3, 0, 0, 0, 0, 0, 0, 6, 2, 0, 0, 0, 0, 0, 0},       // INT 2^53+1 and FLOAT 2^53
		{4, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0},       // NaN and -0
		{9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},       // "" and NULL
		{10, 1, 0, 0, 0, 0, 0, 0, 1, 3, 0, 0, 0, 0, 0, 0},      // true and INT 1
		{8, 0, 0, 0, 0, 0, 0xf0, 0x7f, 7, 4, 0, 0, 0, 0, 0, 0}, // a NaN with a payload and MaxInt64
	} {
		f.Add(seed)
	}
	cols := columns(1)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 16 {
			return
		}
		a, b := keyCell(data[:8]), keyCell(data[8:16])
		ab, errAB := a.Compare(b)
		ba, errBA := b.Compare(a)
		if (errAB == nil) != (errBA == nil) || ab != -ba {
			t.Fatalf("Compare(%s %s, %s %s) = %d, %v but reversed %d, %v", a.Kind(), a, b.Kind(), b, ab, errAB, ba, errBA)
		}
		ka, kb := []relation.Value{a}, []relation.Value{b}
		same := sameKey(ka, kb, cols)
		if want := errAB == nil && ab == 0; same != want {
			t.Fatalf("sameKey(%s %s, %s %s) = %v, Compare says %d, %v", a.Kind(), a, b.Kind(), b, same, ab, errAB)
		}
		if same != sameKey(kb, ka, cols) {
			t.Fatalf("sameKey(%s %s, %s %s) is not symmetric", a.Kind(), a, b.Kind(), b)
		}
		if same && hashKey(ka, cols) != hashKey(kb, cols) {
			t.Fatalf("%s %s and %s %s are one key with two hashes", a.Kind(), a, b.Kind(), b)
		}
	})
}
