// Package polynomial implements provenance polynomials: multivariate
// polynomials over interned symbolic variables with rational (float64)
// coefficients, kept in a canonical form so that syntactically equal
// monomials are always merged.
//
// Provenance polynomials are the symbolic representation of query results
// produced by provenance-aware query evaluation (Green et al., PODS 2007;
// Amsterdamer et al., PODS 2011). COBRA compresses them by remapping
// variables to meta-variables (see internal/abstraction and internal/core);
// the canonical form implemented here is what makes the merge after a remap
// well defined.
package polynomial

import "fmt"

// Var identifies an interned variable. Vars are dense small integers,
// suitable for indexing slices. The zero Var is a valid variable; use NoVar
// for "absent".
type Var int32

// NoVar is the sentinel "no variable" value.
const NoVar Var = -1

// Names is an interning table mapping variable names to Vars and back.
// A Names instance defines the variable namespace shared by a family of
// polynomials (typically one Names per provenance Set).
//
// Names is not safe for concurrent mutation; concurrent read-only use is
// fine after all variables are interned.
type Names struct {
	byName map[string]Var
	names  []string
}

// NewNames returns an empty namespace.
func NewNames() *Names {
	return &Names{byName: make(map[string]Var)}
}

// Var interns name and returns its Var, allocating a fresh Var on first use.
func (n *Names) Var(name string) Var {
	if v, ok := n.byName[name]; ok {
		return v
	}
	v := Var(len(n.names))
	n.byName[name] = v
	n.names = append(n.names, name)
	return v
}

// VarBytes interns the variable named by the bytes of b. The map read
// with string(b) is elided by the compiler, so re-interning an existing
// variable is allocation-free; the name string materializes only on
// first use.
func (n *Names) VarBytes(b []byte) Var {
	if v, ok := n.byName[string(b)]; ok {
		return v
	}
	return n.Var(string(b))
}

// Vars interns each name in order and returns the corresponding Vars.
func (n *Names) Vars(names ...string) []Var {
	vs := make([]Var, len(names))
	for i, s := range names {
		vs[i] = n.Var(s)
	}
	return vs
}

// Lookup reports the Var for name without interning it.
func (n *Names) Lookup(name string) (Var, bool) {
	v, ok := n.byName[name]
	return v, ok
}

// Name returns the name of v. It panics if v was not allocated by this
// namespace.
func (n *Names) Name(v Var) string {
	if v < 0 || int(v) >= len(n.names) {
		panic(fmt.Sprintf("polynomial: Var %d not in namespace (len %d)", v, len(n.names)))
	}
	return n.names[v]
}

// Len returns the number of interned variables.
func (n *Names) Len() int { return len(n.names) }

// All returns the interned names in Var order. The returned slice is a copy.
func (n *Names) All() []string {
	out := make([]string, len(n.names))
	copy(out, n.names)
	return out
}

// Clone returns an independent copy of the namespace. The index is
// rebuilt from the ordered names slice rather than copied by ranging
// n.byName, so cloning performs no map iteration at all (the
// determinism lint invariant: map visit order must never influence
// this package's behavior, and names[i] == name(Var(i)) by
// construction).
func (n *Names) Clone() *Names {
	c := &Names{
		byName: make(map[string]Var, len(n.names)),
		names:  make([]string, len(n.names)),
	}
	copy(c.names, n.names)
	for i, name := range c.names {
		c.byName[name] = Var(i)
	}
	return c
}
