// Package polyio serializes provenance polynomial sets, abstraction trees
// and assignments. COBRA "gets as input provenance polynomials, generated by
// any provenance engine" (§2): these formats are that interface. Four set
// encodings are provided — a human-readable text format, JSON, a compact v1
// binary format, and a streaming v2 binary format (stream.go) whose framed
// per-shard records let sets larger than memory round-trip shard-at-a-time.
// WriteSet selects one by Format; ReadSet detects which one it is reading
// (format.go).
//
// Every writer emits only the variables the set actually uses: abstracted or
// unrelated interned names never leak into a file, and files shrink with the
// provenance instead of with the namespace.
package polyio

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
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

// binaryMagic identifies the v1 binary set format.
var binaryMagic = []byte("CPRVB1\n")

// uvarintWriter batches uvarint/string/float64 encoding over one scratch
// buffer; shared by the v1 writer and the v2 shard frames.
type uvarintWriter struct {
	bw      *bufio.Writer
	scratch [binary.MaxVarintLen64]byte
}

func (u *uvarintWriter) uvarint(x uint64) error {
	n := binary.PutUvarint(u.scratch[:], x)
	_, err := u.bw.Write(u.scratch[:n])
	return err
}

func (u *uvarintWriter) str(s string) error {
	if err := u.uvarint(uint64(len(s))); err != nil {
		return err
	}
	_, err := u.bw.WriteString(s)
	return err
}

func (u *uvarintWriter) float(f float64) error {
	var bits [8]byte
	binary.LittleEndian.PutUint64(bits[:], math.Float64bits(f))
	_, err := u.bw.Write(bits[:])
	return err
}

// writeSetPayload writes the shared body of the binary encodings: the
// used-variable table, then per polynomial its key and monomials with
// varint-encoded terms referencing table indices. Out-of-namespace
// variables and non-positive exponents are rejected with an explicit error
// instead of being silently truncated into a corrupt stream.
func writeSetPayload(bw *bufio.Writer, set *polynomial.Set) error {
	varNames, local, err := usedVarTable(set)
	if err != nil {
		return err
	}
	u := &uvarintWriter{bw: bw}
	if err := u.uvarint(uint64(len(varNames))); err != nil {
		return err
	}
	for _, n := range varNames {
		if err := u.str(n); err != nil {
			return err
		}
	}
	if err := u.uvarint(uint64(set.Len())); err != nil {
		return err
	}
	for i, key := range set.Keys {
		if err := u.str(key); err != nil {
			return err
		}
		p := set.Polys[i]
		if err := u.uvarint(uint64(len(p.Mons))); err != nil {
			return err
		}
		for _, m := range p.Mons {
			if err := u.float(m.Coef); err != nil {
				return err
			}
			if err := u.uvarint(uint64(len(m.Terms))); err != nil {
				return err
			}
			for _, t := range m.Terms {
				if t.Exp <= 0 {
					return fmt.Errorf("polyio: non-positive exponent %d on variable %q", t.Exp, set.Names.Name(t.Var))
				}
				if err := u.uvarint(uint64(local[t.Var])); err != nil {
					return err
				}
				if err := u.uvarint(uint64(uint32(t.Exp))); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// readSetPayload reads one binary set body and appends its polynomials
// into set.
func readSetPayload(br *bufio.Reader, names *polynomial.Names, set *polynomial.Set) error {
	declare := func(n int) {
		if n > 0 && cap(set.Keys) == 0 {
			set.Keys = make([]string, 0, n)
			set.Polys = make([]polynomial.Polynomial, 0, n)
		}
	}
	return readSetPayloadFunc(br, names, declare, func(key string, p polynomial.Polynomial) error {
		return set.Add(key, p)
	})
}

// readSetPayloadFunc reads one binary set body (as written by
// writeSetPayload, and byte-compatible with the historical v1 writer that
// emitted the whole namespace), invoking add once per polynomial in order
// — so callers can stream polynomials into a budgeted store without ever
// materializing the payload. declare, if non-nil, receives the clamped
// polynomial count up front for preallocation.
func readSetPayloadFunc(br *bufio.Reader, names *polynomial.Names, declare func(int), add func(string, polynomial.Polynomial) error) error {
	readString := func() (string, error) {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return "", err
		}
		if n > 1<<24 {
			return "", fmt.Errorf("polyio: string length %d too large", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	nVars, err := binary.ReadUvarint(br)
	if err != nil {
		return err
	}
	if nVars > 1<<28 {
		return fmt.Errorf("polyio: variable count %d too large", nVars)
	}
	remap := make([]polynomial.Var, nVars)
	for i := range remap {
		name, err := readString()
		if err != nil {
			return err
		}
		remap[i] = names.Var(name)
	}
	nPolys, err := binary.ReadUvarint(br)
	if err != nil {
		return err
	}
	// Corrupted streams can claim absurd counts; clamp preallocation the
	// same way monomial counts are clamped below (the loops fail at EOF
	// long before reading that much).
	if declare != nil {
		declare(int(min64(nPolys, 1<<16)))
	}
	for pi := uint64(0); pi < nPolys; pi++ {
		key, err := readString()
		if err != nil {
			return err
		}
		nMons, err := binary.ReadUvarint(br)
		if err != nil {
			return err
		}
		var b polynomial.Builder
		b.Grow(int(min64(nMons, 1<<16)))
		for mi := uint64(0); mi < nMons; mi++ {
			var bits [8]byte
			if _, err := io.ReadFull(br, bits[:]); err != nil {
				return err
			}
			coef := math.Float64frombits(binary.LittleEndian.Uint64(bits[:]))
			nTerms, err := binary.ReadUvarint(br)
			if err != nil {
				return err
			}
			if nTerms > 1<<20 {
				return fmt.Errorf("polyio: monomial claims %d terms", nTerms)
			}
			terms := make([]polynomial.Term, 0, nTerms)
			for ti := uint64(0); ti < nTerms; ti++ {
				v, err := binary.ReadUvarint(br)
				if err != nil {
					return err
				}
				e, err := binary.ReadUvarint(br)
				if err != nil {
					return err
				}
				if v >= nVars {
					return fmt.Errorf("polyio: variable index %d out of range", v)
				}
				if e == 0 || e > math.MaxInt32 {
					return fmt.Errorf("polyio: bad exponent %d", e)
				}
				terms = append(terms, polynomial.TExp(remap[v], int32(e)))
			}
			b.Add(coef, terms...)
		}
		if err := add(key, b.Polynomial()); err != nil {
			return err
		}
	}
	return nil
}

// WriteSetBinary writes the compact v1 binary encoding: magic, the
// used-variable table, then per polynomial its key and monomials with
// varint-encoded terms. For streaming or sharded sets see SetWriter (v2).
func WriteSetBinary(w io.Writer, set *polynomial.Set) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic); err != nil {
		return err
	}
	if err := writeSetPayload(bw, set); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadSetBinary parses any binary encoding, dispatching on the magic:
// v1 streams read as before, v2 and v3 streams have their shard frames
// concatenated into one in-memory set (use SetReader to stream them
// shard-at-a-time, or OpenIndexedSet for random access into a v3 stream).
func ReadSetBinary(r io.Reader, names *polynomial.Names) (*polynomial.Set, error) {
	if names == nil {
		names = polynomial.NewNames()
	}
	br := bufio.NewReader(r)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("polyio: reading magic: %w", err)
	}
	switch string(magic) {
	case string(binaryMagic):
		set := polynomial.NewSet(names)
		if err := readSetPayload(br, names, set); err != nil {
			return nil, err
		}
		return set, nil
	case string(streamMagic):
		return readStreamAll(br, names, 2)
	case string(v3Magic):
		return readStreamAll(br, names, 3)
	default:
		return nil, fmt.Errorf("polyio: not a cobra binary set (magic %q)", magic)
	}
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

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
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
