// Package relation provides the relational substrate: typed values
// (including symbolic polynomial-valued numerics), schemas with qualified
// column names, tuples carrying provenance annotations, and in-memory
// relations.
package relation

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"

	"github.com/cobra-prov/cobra/internal/polynomial"
)

// Kind enumerates value types.
type Kind uint8

const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	// KindPoly is a symbolic numeric value: a provenance polynomial. Cells
	// become KindPoly when instrumented with provenance variables (e.g. a
	// price 0.4 parameterized as 0.4·p1·m1).
	KindPoly
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	case KindPoly:
		return "poly"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed cell value in two words, and its zero value
// is NULL. The payload word n holds an int64, the bits of a float64 or a
// bool; for the two reference kinds it holds the length (bytes of the
// string, monomials of the polynomial) with the kind in its top four bits.
// The pointer word p is nil for NULL, the address of the kind's entry in
// tags for INT, FLOAT and BOOL — and for the empty string and the zero
// polynomial, so neither is NULL — and otherwise the first byte of the
// string or the first monomial of the polynomial. So the kind of a cell is
// where p points when that is inside tags, and the top bits of n when not.
//
// What makes the unsafe reads sound: strings and polynomials are immutable,
// so the bytes and monomials p was taken from never change under a cell;
// p is a real Go pointer (into the heap, the data segment or tags), so the
// collector keeps what it points into alive and never sees a made-up
// address; the length was taken from the same string or slice as p; and P
// returns a slice whose cap equals its len, so an append to it cannot write
// into the original's spare capacity. The leading zero-width field makes
// Value incomparable with ==, which would compare pointers, not contents.
type Value struct {
	_ [0]func()
	n uint64
	p unsafe.Pointer
}

const (
	kindShift = 60
	lenMask   = 1<<kindShift - 1
)

var tags [KindPoly + 1]byte

func tag(k Kind) unsafe.Pointer { return unsafe.Pointer(&tags[k]) }

// Null returns the SQL NULL value.
func Null() Value { return Value{} }

// Int wraps an int64.
func Int(i int64) Value { return Value{n: uint64(i), p: tag(KindInt)} }

// Float wraps a float64.
func Float(f float64) Value { return Value{n: math.Float64bits(f), p: tag(KindFloat)} }

// ref builds a cell of reference kind k over the n elements at p.
func ref(k Kind, p unsafe.Pointer, n int) Value {
	if n == 0 {
		p = tag(k)
	}
	return Value{n: uint64(k)<<kindShift | uint64(n), p: p}
}

// Str wraps a string.
func Str(s string) Value { return ref(KindString, unsafe.Pointer(unsafe.StringData(s)), len(s)) }

// Bool wraps a bool.
func Bool(b bool) Value {
	v := Value{p: tag(KindBool)}
	if b {
		v.n = 1
	}
	return v
}

// Poly wraps a symbolic numeric value.
func Poly(p polynomial.Polynomial) Value {
	return ref(KindPoly, unsafe.Pointer(unsafe.SliceData(p.Mons)), len(p.Mons))
}

// Kind returns the cell's kind.
func (v Value) Kind() Kind {
	if d := uintptr(v.p) - uintptr(unsafe.Pointer(&tags)); d < uintptr(len(tags)) {
		return Kind(d)
	}
	return Kind(v.n >> kindShift)
}

// I, F, S, B and P return the payload of an INT, FLOAT, STRING, BOOL and
// symbolic cell, and the zero value of their type on a cell of any other
// kind.
func (v Value) I() int64 {
	if v.p != tag(KindInt) {
		return 0
	}
	return int64(v.n)
}

func (v Value) F() float64 {
	if v.p != tag(KindFloat) {
		return 0
	}
	return math.Float64frombits(v.n)
}

func (v Value) S() string {
	if v.Kind() != KindString {
		return ""
	}
	return v.str()
}

func (v Value) B() bool { return v.p == tag(KindBool) && v.n != 0 }

func (v Value) P() polynomial.Polynomial {
	n := int(v.n & lenMask)
	if v.Kind() != KindPoly || n == 0 {
		return polynomial.Polynomial{}
	}
	return polynomial.Polynomial{Mons: unsafe.Slice((*polynomial.Monomial)(v.p), n)}
}

// str is S for a cell known to be a string.
func (v Value) str() string { return unsafe.String((*byte)(v.p), int(v.n&lenMask)) }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.p == nil }

// IsNumeric reports whether the value participates in arithmetic.
func (v Value) IsNumeric() bool {
	k := v.Kind()
	return k == KindInt || k == KindFloat || k == KindPoly
}

// AsFloat converts a concrete numeric value to float64. Symbolic values
// convert only if constant.
func (v Value) AsFloat() (float64, bool) {
	switch v.Kind() {
	case KindInt:
		return float64(int64(v.n)), true
	case KindFloat:
		return math.Float64frombits(v.n), true
	case KindPoly:
		if c, ok := v.P().IsConstant(); ok {
			return c, true
		}
	}
	return 0, false
}

// AsPoly lifts a numeric value into the polynomial semiring.
func (v Value) AsPoly() (polynomial.Polynomial, bool) {
	switch v.Kind() {
	case KindInt:
		return polynomial.Const(float64(int64(v.n))), true
	case KindFloat:
		return polynomial.Const(math.Float64frombits(v.n)), true
	case KindPoly:
		return v.P(), true
	}
	return polynomial.Polynomial{}, false
}

// Compare orders two values: -1, 0, +1. NULL compares less than everything
// and equal to NULL (simplified three-valued logic: engine filters treat
// NULL comparisons as false upstream). Two cells of one concrete kind
// compare directly — INT with INT exactly, as int64. INT with FLOAT
// compares as float64, and float64s in cmp.Compare's total order: the two
// zeros are equal, NaN equals NaN and is less than every number. Symbolic
// values compare only when constant.
func (v Value) Compare(o Value) (int, error) {
	vk, ok := v.Kind(), o.Kind()
	if vk == ok {
		switch vk {
		case KindString:
			return strings.Compare(v.str(), o.str()), nil
		case KindInt:
			return cmp.Compare(int64(v.n), int64(o.n)), nil
		case KindFloat:
			return cmp.Compare(math.Float64frombits(v.n), math.Float64frombits(o.n)), nil
		case KindNull, KindBool:
			return cmp.Compare(v.n, o.n), nil
		}
	}
	switch {
	case vk == KindNull:
		return -1, nil
	case ok == KindNull:
		return 1, nil
	case v.IsNumeric() && o.IsNumeric():
		a, aok := v.AsFloat()
		b, bok := o.AsFloat()
		if !aok || !bok {
			return 0, fmt.Errorf("relation: cannot compare symbolic value %s with %s", v, o)
		}
		return cmp.Compare(a, b), nil
	}
	return 0, fmt.Errorf("relation: cannot compare %s with %s", vk, ok)
}

// Equal reports comparability and equality.
func (v Value) Equal(o Value) bool {
	if v.Kind() == KindPoly || o.Kind() == KindPoly {
		a, aok := v.AsPoly()
		b, bok := o.AsPoly()
		return aok && bok && polynomial.Equal(a, b)
	}
	c, err := v.Compare(o)
	return err == nil && c == 0
}

// String renders the value for display. Symbolic values render with
// placeholder variable ids (use Format with a namespace for names).
func (v Value) String() string {
	if v.Kind() == KindString {
		return v.str()
	}
	return string(v.AppendString(nil))
}

// AppendString appends String's rendering to buf — the allocation-free
// form used by hot key-rendering loops (capture group keys, lineage
// keys). The bytes appended are exactly String's output.
func (v Value) AppendString(buf []byte) []byte {
	switch v.Kind() {
	case KindNull:
		return append(buf, "NULL"...)
	case KindInt:
		return strconv.AppendInt(buf, v.I(), 10)
	case KindFloat:
		return strconv.AppendFloat(buf, v.F(), 'g', -1, 64)
	case KindString:
		return append(buf, v.str()...)
	case KindBool:
		return strconv.AppendBool(buf, v.B())
	case KindPoly:
		buf = append(buf, "<poly:"...)
		buf = strconv.AppendInt(buf, int64(v.n&lenMask), 10)
		return append(buf, " monomials>"...)
	default:
		return append(buf, '?')
	}
}

// Format renders the value, printing symbolic values with variable names.
func (v Value) Format(names *polynomial.Names) string {
	if v.Kind() == KindPoly {
		return v.P().String(names)
	}
	return v.String()
}
