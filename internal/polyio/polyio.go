// Package polyio serializes provenance polynomial sets, abstraction trees
// and assignments. COBRA "gets as input provenance polynomials, generated by
// any provenance engine" (§2): these formats are that interface. Three set
// encodings are provided — a human-readable text format, JSON, and one
// binary format (v3: v3.go writes it, indexed.go reads it at random,
// stream.go in sequence) whose framed per-shard records let sets larger
// than memory round-trip shard-at-a-time. WriteSet selects one by Format;
// ReadSet detects which one it is reading (format.go). The two superseded
// binary formats, v1 and v2, are still read (stream.go) and no longer
// written.
//
// Every writer emits only the variables the set actually uses: abstracted or
// unrelated interned names never leak into a file, and files shrink with the
// provenance instead of with the namespace.
package polyio

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"

	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/valuation"
)

// keyNeedsQuoting reports whether a key would be mangled by the line-based
// text format: empty keys, keys that a reader would skip as comments,
// whitespace that framing cannot preserve, or a leading quote (which marks
// an escaped key).
func keyNeedsQuoting(key string) bool {
	if key == "" {
		return true
	}
	if strings.TrimSpace(key) != key {
		return true
	}
	if strings.HasPrefix(key, "#") || strings.HasPrefix(key, `"`) {
		return true
	}
	return strings.ContainsAny(key, "\t\n\r")
}

// textHeaderV2 declares the text-format revision that introduced quoted
// keys. Files whose header still says v1 (or has no header) predate the
// escape syntax, so their keys — including ones that start with '"' — are
// taken verbatim.
const textHeaderV2 = "# cobra provenance set v2"

// WriteSetText writes one "key<TAB>polynomial" line per polynomial. Keys
// that the reader could mis-parse — empty, leading '#' (comment), leading or
// trailing whitespace, embedded tab/newline, or a leading '"' — are escaped
// with Go string quoting so that every key round-trips exactly.
func WriteSetText(w io.Writer, set *polynomial.Set) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, textHeaderV2); err != nil {
		return err
	}
	for i, key := range set.Keys {
		if keyNeedsQuoting(key) {
			key = strconv.Quote(key)
		}
		if _, err := fmt.Fprintf(bw, "%s\t%s\n", key, set.Polys[i].String(set.Names)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSetText parses the text format, interning variables into names (a
// fresh namespace if nil). The key portion of a line is taken verbatim (no
// whitespace trimming); in files whose header declares v2 or later, keys
// starting with '"' are unescaped. Files written before the escape syntax
// (header v1, or none) read back exactly as before — a legacy key that
// happens to start with '"' stays verbatim.
func ReadSetText(r io.Reader, names *polynomial.Names) (*polynomial.Set, error) {
	if names == nil {
		names = polynomial.NewNames()
	}
	set := polynomial.NewSet(names)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	lineNo := 0
	quotedKeys := false
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if trimmed := strings.TrimSpace(line); trimmed == "" || strings.HasPrefix(trimmed, "#") {
			if trimmed == textHeaderV2 {
				quotedKeys = true
			}
			continue
		}
		tab := strings.IndexByte(line, '\t')
		if tab < 0 {
			return nil, fmt.Errorf("polyio: line %d: missing tab separator", lineNo)
		}
		key := line[:tab]
		if quotedKeys && strings.HasPrefix(key, `"`) {
			unquoted, err := strconv.Unquote(key)
			if err != nil {
				return nil, fmt.Errorf("polyio: line %d: bad quoted key %s: %w", lineNo, key, err)
			}
			key = unquoted
		}
		poly, err := polynomial.Parse(strings.TrimSpace(line[tab+1:]), names)
		if err != nil {
			return nil, fmt.Errorf("polyio: line %d: %w", lineNo, err)
		}
		if err := set.Add(key, poly); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return set, nil
}

// usedVarTable collects the variables the set actually uses, in ascending
// Var order, validating each against the namespace. It returns their names
// and a dense Var→table-index remap. Writers emit this table instead of the
// whole namespace, so files carry no unrelated interned names.
func usedVarTable(set *polynomial.Set) ([]string, []int32, error) {
	used := set.UsedVars()
	nsLen := set.Names.Len()
	names := make([]string, len(used))
	maxVar := polynomial.Var(-1)
	for i, v := range used {
		if v < 0 || int(v) >= nsLen {
			return nil, nil, fmt.Errorf("polyio: variable %d outside the namespace [0,%d)", v, nsLen)
		}
		names[i] = set.Names.Name(v)
		if v > maxVar {
			maxVar = v
		}
	}
	local := make([]int32, maxVar+1)
	for i := range local {
		local[i] = -1
	}
	for i, v := range used {
		local[v] = int32(i)
	}
	return names, local, nil
}

// jsonSet is the JSON wire form of a Set. Variables lists only the
// variables the polynomials use.
type jsonSet struct {
	Variables   []string         `json:"variables"`
	Polynomials []jsonPolynomial `json:"polynomials"`
}

type jsonPolynomial struct {
	Key       string         `json:"key"`
	Monomials []jsonMonomial `json:"monomials"`
}

type jsonMonomial struct {
	Coef  float64    `json:"coef"`
	Terms [][2]int32 `json:"terms,omitempty"` // [variable index, exponent]
}

// WriteSetJSON writes the JSON encoding.
func WriteSetJSON(w io.Writer, set *polynomial.Set) error {
	varNames, local, err := usedVarTable(set)
	if err != nil {
		return err
	}
	out := jsonSet{Variables: varNames}
	for i, key := range set.Keys {
		jp := jsonPolynomial{Key: key}
		for _, m := range set.Polys[i].Mons {
			jm := jsonMonomial{Coef: m.Coef}
			for _, t := range m.Terms {
				if t.Exp <= 0 {
					return fmt.Errorf("polyio: non-positive exponent %d on variable %q", t.Exp, set.Names.Name(t.Var))
				}
				jm.Terms = append(jm.Terms, [2]int32{local[t.Var], t.Exp})
			}
			jp.Monomials = append(jp.Monomials, jm)
		}
		out.Polynomials = append(out.Polynomials, jp)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// ReadSetJSON parses the JSON encoding, re-interning variables into names.
func ReadSetJSON(r io.Reader, names *polynomial.Names) (*polynomial.Set, error) {
	if names == nil {
		names = polynomial.NewNames()
	}
	var in jsonSet
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("polyio: decoding JSON set: %w", err)
	}
	remap := make([]polynomial.Var, len(in.Variables))
	for i, name := range in.Variables {
		remap[i] = names.Var(name)
	}
	set := polynomial.NewSet(names)
	for _, jp := range in.Polynomials {
		var b polynomial.Builder
		for _, jm := range jp.Monomials {
			terms := make([]polynomial.Term, 0, len(jm.Terms))
			for _, t := range jm.Terms {
				if t[0] < 0 || int(t[0]) >= len(remap) {
					return nil, fmt.Errorf("polyio: variable index %d out of range", t[0])
				}
				if t[1] <= 0 {
					return nil, fmt.Errorf("polyio: non-positive exponent %d", t[1])
				}
				terms = append(terms, polynomial.TExp(remap[t[0]], t[1]))
			}
			b.Add(jm.Coef, terms...)
		}
		if err := set.Add(jp.Key, b.Polynomial()); err != nil {
			return nil, err
		}
	}
	return set, nil
}

// WriteAssignmentJSON writes an assignment as a {"variable": value} object.
func WriteAssignmentJSON(w io.Writer, a *valuation.Assignment) error {
	m := make(map[string]float64, a.Len())
	for _, item := range a.Items() {
		m[item.Name] = item.Value
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// ReadAssignmentJSON parses a {"variable": value} object. Unknown variables
// are interned (the assignment may precede the provenance it applies to).
func ReadAssignmentJSON(r io.Reader, names *polynomial.Names) (*valuation.Assignment, error) {
	var m map[string]float64
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("polyio: decoding assignment: %w", err)
	}
	a := valuation.New(names)
	// Intern in sorted name order: names.Var allocates fresh Vars, so
	// ranging the decoded map directly would let map visit order pick the
	// Var numbering of previously-unseen variables.
	keys := make([]string, 0, len(m))
	for name := range m {
		keys = append(keys, name)
	}
	sort.Strings(keys)
	vars := make([]polynomial.Var, len(keys))
	for i, name := range keys {
		vars[i] = names.Var(name)
	}
	// An Assignment inserts out of order in O(entries): set in Var order.
	slices.Sort(vars)
	for _, v := range vars {
		a.SetVar(v, m[names.Name(v)])
	}
	return a, nil
}
