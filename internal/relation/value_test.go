package relation

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"github.com/cobra-prov/cobra/internal/polynomial"
)

// TestValueSize pins the cell at two words: every slab the engine sizes in
// cells is sized by this number.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 16", got)
	}
}

// bigPoly returns a polynomial of n monomials with distinct term vectors
// and coefficients.
func bigPoly(n int) polynomial.Polynomial {
	mons := make([]polynomial.Monomial, n)
	for i := range mons {
		mons[i] = polynomial.Mono(float64(i)+0.5, polynomial.T(polynomial.Var(i)), polynomial.T(polynomial.Var(n+i%7)))
	}
	return polynomial.New(mons...)
}

// samePoly is identity of coefficients (by bits) and term vectors.
func samePoly(a, b polynomial.Polynomial) bool {
	if len(a.Mons) != len(b.Mons) {
		return false
	}
	for i := range a.Mons {
		if math.Float64bits(a.Mons[i].Coef) != math.Float64bits(b.Mons[i].Coef) ||
			polynomial.CompareTerms(a.Mons[i].Terms, b.Mons[i].Terms) != 0 {
			return false
		}
	}
	return true
}

// TestValueRoundTrip: what a constructor is given, the accessor of its kind
// returns bit for bit; every other accessor returns its zero value; and the
// cell is never NULL.
func TestValueRoundTrip(t *testing.T) {
	check := func(v Value, k Kind, i int64, f float64, s string, b bool, p polynomial.Polynomial) {
		t.Helper()
		if v.Kind() != k || v.IsNull() {
			t.Fatalf("kind = %s (null %v), want %s", v.Kind(), v.IsNull(), k)
		}
		if v.I() != i || math.Float64bits(v.F()) != math.Float64bits(f) || v.S() != s || v.B() != b || !samePoly(v.P(), p) {
			t.Fatalf("%s cell reads I %d F %x S %d bytes B %v P %d monomials", k, v.I(), math.Float64bits(v.F()), len(v.S()), v.B(), len(v.P().Mons))
		}
	}
	zero := polynomial.Polynomial{}
	for _, i := range []int64{0, 1, -1, math.MinInt64, math.MaxInt64, 1 << 53, 1<<53 + 1, 3 << 60, 5 << 60} {
		check(Int(i), KindInt, i, 0, "", false, zero)
	}
	nanPayload := math.Float64frombits(0x7ff8_0000_dead_beef)
	for _, f := range []float64{0, math.Copysign(0, -1), 1.5, math.Inf(1), math.Inf(-1), math.NaN(), nanPayload,
		math.SmallestNonzeroFloat64, math.MaxFloat64, math.Float64frombits(3 << 60)} {
		check(Float(f), KindFloat, 0, f, "", false, zero)
	}
	for _, s := range []string{"", "x", "1998-09-02", strings.Repeat("ab", 1<<19)} {
		v := Str(s)
		check(v, KindString, 0, 0, s, false, zero)
		if v.String() != s || string(v.AppendString(nil)) != s {
			t.Fatalf("String of a %d-byte string cell differs", len(s))
		}
	}
	r := rand.New(rand.NewSource(7))
	for n := 0; n < 2000; n++ {
		bits := r.Uint64()
		check(Int(int64(bits)), KindInt, int64(bits), 0, "", false, zero)
		check(Float(math.Float64frombits(bits)), KindFloat, 0, math.Float64frombits(bits), "", false, zero)
		buf := make([]byte, r.Intn(40))
		r.Read(buf)
		check(Str(string(buf)), KindString, 0, 0, string(buf), false, zero)
		p := bigPoly(r.Intn(6))
		check(Poly(p), KindPoly, 0, 0, "", false, p)
	}
	check(Bool(true), KindBool, 0, 0, "", true, zero)
	check(Bool(false), KindBool, 0, 0, "", false, zero)
	names := polynomial.NewNames()
	for _, p := range []polynomial.Polynomial{polynomial.Zero(), polynomial.One(), polynomial.Const(-2.5),
		polynomial.MustParse("2*x*y + 3", names), bigPoly(1000)} {
		v := Poly(p)
		check(v, KindPoly, 0, 0, "", false, p)
		if got := v.P().Mons; cap(got) != len(got) {
			t.Fatalf("P() of %d monomials has cap %d: an append could write into the original", len(got), cap(got))
		}
	}
	// A slice with spare capacity: the cell sees its length only.
	spare := append(make([]polynomial.Monomial, 0, 8), bigPoly(3).Mons...)
	if got := Poly(polynomial.Polynomial{Mons: spare}).P().Mons; len(got) != 3 || cap(got) != 3 {
		t.Fatalf("P() = len %d cap %d, want 3 3", len(got), cap(got))
	}
}

// TestValueZeroIsNull: the zero cell is NULL, and the empty string and the
// zero polynomial are cells of their own kinds, not NULL.
func TestValueZeroIsNull(t *testing.T) {
	var zero Value
	if !zero.IsNull() || zero.Kind() != KindNull || zero.String() != "NULL" {
		t.Fatalf("Value{} is %s %q", zero.Kind(), zero)
	}
	if !Null().Equal(zero) {
		t.Fatal("Null() is not the zero cell")
	}
	for _, v := range []Value{Str(""), Poly(polynomial.Zero()), Int(0), Float(0), Bool(false)} {
		if v.IsNull() || v.Kind() == KindNull || v.Equal(zero) {
			t.Fatalf("%s cell %q reads as NULL", v.Kind(), v)
		}
	}
	if c, err := Str("").Compare(zero); err != nil || c != 1 {
		t.Fatalf(`Str("").Compare(NULL) = %d, %v`, c, err)
	}
	if f, ok := Poly(polynomial.Zero()).AsFloat(); !ok || f != 0 {
		t.Fatalf("zero polynomial AsFloat = %v, %v", f, ok)
	}
}

// TestValueKeepsReferentAlive: the cell's pointer word is the only
// reference to the string's bytes and the polynomial's monomials across two
// collections, and both read back whole.
func TestValueKeepsReferentAlive(t *testing.T) {
	cells := make([]Value, 0, 64)
	for i := 0; i < cap(cells)/2; i++ {
		s := strings.Repeat(string(rune('a'+i%26)), 1000+i)
		cells = append(cells, Str(s), Poly(bigPoly(100+i)))
	}
	for round := 0; round < 2; round++ {
		runtime.GC()
		garbage := make([][]byte, 256) // churn: a freed span would be reused
		for i := range garbage {
			garbage[i] = make([]byte, 1500)
		}
		_ = garbage
	}
	for i := 0; i < len(cells); i += 2 {
		n := i / 2
		if s := cells[i].S(); s != strings.Repeat(string(rune('a'+n%26)), 1000+n) {
			t.Fatalf("string cell %d read back %d bytes, damaged", n, len(s))
		}
		if p := cells[i+1].P(); !samePoly(p, bigPoly(100+n)) {
			t.Fatalf("polynomial cell %d damaged", n)
		}
	}
}

// TestCompareSameKindExact: INT with INT is exact above 2^53, where the
// float64 of two neighbours is one number; INT with FLOAT stays the float64
// comparison.
func TestCompareSameKindExact(t *testing.T) {
	const big = int64(1) << 53
	if c, err := Int(big).Compare(Int(big + 1)); err != nil || c != -1 {
		t.Fatalf("Int(2^53).Compare(Int(2^53+1)) = %d, %v; want -1", c, err)
	}
	if c, _ := Int(math.MaxInt64).Compare(Int(math.MaxInt64 - 1)); c != 1 {
		t.Fatalf("MaxInt64 vs MaxInt64-1 = %d", c)
	}
	if c, _ := Int(math.MinInt64).Compare(Int(math.MaxInt64)); c != -1 {
		t.Fatalf("MinInt64 vs MaxInt64 = %d", c)
	}
	if Int(big).Equal(Int(big + 1)) {
		t.Fatal("Int(2^53) equals Int(2^53+1)")
	}
	if c, err := Int(big + 1).Compare(Float(float64(big))); err != nil || c != 0 {
		t.Fatalf("Int(2^53+1).Compare(Float(2^53)) = %d, %v; the INT-FLOAT rule is float64", c, err)
	}
	// FLOAT with FLOAT is a total order: the zeros are one value, every NaN
	// equals every NaN and is below -Inf — it used to equal every number.
	if c, _ := Float(0).Compare(Float(math.Copysign(0, -1))); c != 0 {
		t.Fatalf("+0 vs -0 = %d", c)
	}
	nan, payload := Float(math.NaN()), Float(math.Float64frombits(0x7ff8_0000_dead_beef))
	if c, _ := nan.Compare(payload); c != 0 || !nan.Equal(payload) {
		t.Fatalf("NaN vs NaN = %d", c)
	}
	if c, _ := nan.Compare(Float(math.Inf(-1))); c != -1 || nan.Equal(Float(1)) {
		t.Fatalf("NaN vs -Inf = %d", c)
	}
	if c, _ := Int(1).Compare(nan); c != 1 {
		t.Fatalf("INT 1 vs NaN = %d", c)
	}
	if c, _ := Str("1995-03-15").Compare(Str("1995-03-2")); c != -1 {
		t.Fatalf("string order = %d", c)
	}
}
