// Package relation provides the relational substrate: typed values
// (including symbolic polynomial-valued numerics), schemas with qualified
// column names, tuples carrying provenance annotations, and in-memory
// relations.
package relation

import (
	"fmt"
	"strconv"

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

// Value is a dynamically typed cell value.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	S    string
	B    bool
	P    polynomial.Polynomial
}

// Null returns the SQL NULL value.
func Null() Value { return Value{Kind: KindNull} }

// Int wraps an int64.
func Int(i int64) Value { return Value{Kind: KindInt, I: i} }

// Float wraps a float64.
func Float(f float64) Value { return Value{Kind: KindFloat, F: f} }

// Str wraps a string.
func Str(s string) Value { return Value{Kind: KindString, S: s} }

// Bool wraps a bool.
func Bool(b bool) Value { return Value{Kind: KindBool, B: b} }

// Poly wraps a symbolic numeric value.
func Poly(p polynomial.Polynomial) Value { return Value{Kind: KindPoly, P: p} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// IsNumeric reports whether the value participates in arithmetic.
func (v Value) IsNumeric() bool {
	return v.Kind == KindInt || v.Kind == KindFloat || v.Kind == KindPoly
}

// AsFloat converts a concrete numeric value to float64. Symbolic values
// convert only if constant.
func (v Value) AsFloat() (float64, bool) {
	switch v.Kind {
	case KindInt:
		return float64(v.I), true
	case KindFloat:
		return v.F, true
	case KindPoly:
		if c, ok := v.P.IsConstant(); ok {
			return c, true
		}
	}
	return 0, false
}

// AsPoly lifts a numeric value into the polynomial semiring.
func (v Value) AsPoly() (polynomial.Polynomial, bool) {
	switch v.Kind {
	case KindInt:
		return polynomial.Const(float64(v.I)), true
	case KindFloat:
		return polynomial.Const(v.F), true
	case KindPoly:
		return v.P, true
	}
	return polynomial.Polynomial{}, false
}

// Compare orders two values: -1, 0, +1. NULL compares less than everything
// and equal to NULL (simplified three-valued logic: engine filters treat
// NULL comparisons as false upstream). Numeric kinds compare numerically;
// symbolic values compare only when constant.
func (v Value) Compare(o Value) (int, error) {
	if v.Kind == KindNull || o.Kind == KindNull {
		switch {
		case v.Kind == o.Kind:
			return 0, nil
		case v.Kind == KindNull:
			return -1, nil
		default:
			return 1, nil
		}
	}
	if v.IsNumeric() && o.IsNumeric() {
		a, aok := v.AsFloat()
		b, bok := o.AsFloat()
		if !aok || !bok {
			return 0, fmt.Errorf("relation: cannot compare symbolic value %s with %s", v, o)
		}
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if v.Kind != o.Kind {
		return 0, fmt.Errorf("relation: cannot compare %s with %s", v.Kind, o.Kind)
	}
	switch v.Kind {
	case KindString:
		switch {
		case v.S < o.S:
			return -1, nil
		case v.S > o.S:
			return 1, nil
		default:
			return 0, nil
		}
	case KindBool:
		vi, oi := 0, 0
		if v.B {
			vi = 1
		}
		if o.B {
			oi = 1
		}
		return vi - oi, nil
	default:
		return 0, fmt.Errorf("relation: cannot compare %s values", v.Kind)
	}
}

// Equal reports comparability and equality.
func (v Value) Equal(o Value) bool {
	if v.Kind == KindPoly || o.Kind == KindPoly {
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
	if v.Kind == KindString {
		return v.S
	}
	return string(v.AppendString(nil))
}

// AppendString appends String's rendering to buf — the allocation-free
// form used by hot key-rendering loops (capture group keys, lineage
// keys). The bytes appended are exactly String's output.
func (v Value) AppendString(buf []byte) []byte {
	switch v.Kind {
	case KindNull:
		return append(buf, "NULL"...)
	case KindInt:
		return strconv.AppendInt(buf, v.I, 10)
	case KindFloat:
		return strconv.AppendFloat(buf, v.F, 'g', -1, 64)
	case KindString:
		return append(buf, v.S...)
	case KindBool:
		return strconv.AppendBool(buf, v.B)
	case KindPoly:
		buf = append(buf, "<poly:"...)
		buf = strconv.AppendInt(buf, int64(v.P.NumMonomials()), 10)
		return append(buf, " monomials>"...)
	default:
		return append(buf, '?')
	}
}

// Format renders the value, printing symbolic values with variable names.
func (v Value) Format(names *polynomial.Names) string {
	if v.Kind == KindPoly {
		return v.P.String(names)
	}
	return v.String()
}
