package polyio

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/valuation"
)

func sampleSet(t testing.TB) *polynomial.Set {
	t.Helper()
	names := polynomial.NewNames()
	set := polynomial.NewSet(names)
	set.Add("10001", polynomial.MustParse("208.8*p1*m1 + 240*p1*m3 - 2*x^3", names))
	set.Add("10002", polynomial.MustParse("77.9*b1*m1 + 0.5", names))
	set.Add("empty", polynomial.Zero())
	return set
}

func setsEqual(a, b *polynomial.Set) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Keys {
		if a.Keys[i] != b.Keys[i] {
			return false
		}
		// Compare via string rendering in each namespace.
		if a.Polys[i].String(a.Names) != b.Polys[i].String(b.Names) {
			return false
		}
	}
	return true
}

func TestTextRoundTrip(t *testing.T) {
	set := sampleSet(t)
	var buf bytes.Buffer
	if err := WriteSetText(&buf, set); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSetText(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !setsEqual(set, back) {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", set, back)
	}
}

// TestTextAwkwardKeysRoundTrip: keys the old writer emitted raw — and the
// old reader then skipped as comments, trimmed, or rejected — must now
// round-trip exactly via quoting.
func TestTextAwkwardKeysRoundTrip(t *testing.T) {
	keys := []string{
		"#looks like a comment",
		"",
		"  leading and trailing  ",
		"\tstarts with tab",
		"embedded\ttab",
		"embedded\nnewline",
		"trailing carriage\r",
		`"already quoted"`,
		"# cobra provenance set v1", // the header line itself
		"plain key stays plain",
		"internal  spaces  survive",
	}
	names := polynomial.NewNames()
	set := polynomial.NewSet(names)
	for _, k := range keys {
		set.Add(k, polynomial.MustParse("2*x", names))
	}
	var buf bytes.Buffer
	if err := WriteSetText(&buf, set); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSetText(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != len(keys) {
		t.Fatalf("read %d keys, want %d (comment-skipping dropped lines?)", back.Len(), len(keys))
	}
	for i, k := range keys {
		if back.Keys[i] != k {
			t.Fatalf("key %d: %q round-tripped as %q", i, k, back.Keys[i])
		}
	}
}

// TestTextKeyNotTrimmed: the key portion of a hand-written line is taken
// verbatim, not whitespace-trimmed.
func TestTextKeyNotTrimmed(t *testing.T) {
	set, err := ReadSetText(strings.NewReader(" spaced key \t2*x\n"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 1 || set.Keys[0] != " spaced key " {
		t.Fatalf("key = %q", set.Keys[0])
	}
	bad := textHeaderV2 + "\n\"bad quote\t1\n"
	if _, err := ReadSetText(strings.NewReader(bad), nil); err == nil {
		t.Fatal("malformed quoted key in a v2 file should error")
	}
}

// TestTextLegacyFilesReadVerbatim: files written before the v2 escape
// syntax (v1 header or none) must read back unchanged — including keys
// that happen to start with '"', which v2 would treat as quoted.
func TestTextLegacyFilesReadVerbatim(t *testing.T) {
	legacy := "# cobra provenance set v1\n" +
		"\"q\"\t2*x\n" + // a legal v1 key that looks quoted
		"\"5\t3*y\n" + // unbalanced quote, also legal in v1
		"plain\t7\n"
	set, err := ReadSetText(strings.NewReader(legacy), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{`"q"`, `"5`, "plain"}
	if set.Len() != len(want) {
		t.Fatalf("len = %d", set.Len())
	}
	for i, k := range want {
		if set.Keys[i] != k {
			t.Fatalf("key %d: %q read as %q", i, k, set.Keys[i])
		}
	}
	// Headerless files get the same verbatim treatment.
	set2, err := ReadSetText(strings.NewReader("\"q\"\t2*x\n"), nil)
	if err != nil || set2.Keys[0] != `"q"` {
		t.Fatalf("headerless: %v %q", err, set2.Keys[0])
	}
}

func TestTextReadErrors(t *testing.T) {
	if _, err := ReadSetText(strings.NewReader("no tab here"), nil); err == nil {
		t.Fatal("missing tab should error")
	}
	if _, err := ReadSetText(strings.NewReader("k\t2**x"), nil); err == nil {
		t.Fatal("bad polynomial should error")
	}
	// Comments and blank lines are fine.
	set, err := ReadSetText(strings.NewReader("# comment\n\nk\t2*x\n"), nil)
	if err != nil || set.Len() != 1 {
		t.Fatalf("comment handling: %v", err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	set := sampleSet(t)
	var buf bytes.Buffer
	if err := WriteSetJSON(&buf, set); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSetJSON(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !setsEqual(set, back) {
		t.Fatal("JSON round trip mismatch")
	}
}

func TestJSONReadErrors(t *testing.T) {
	if _, err := ReadSetJSON(strings.NewReader("{"), nil); err == nil {
		t.Fatal("truncated JSON should error")
	}
	bad := `{"variables":["x"],"polynomials":[{"key":"k","monomials":[{"coef":1,"terms":[[5,1]]}]}]}`
	if _, err := ReadSetJSON(strings.NewReader(bad), nil); err == nil {
		t.Fatal("out-of-range variable index should error")
	}
	bad2 := `{"variables":["x"],"polynomials":[{"key":"k","monomials":[{"coef":1,"terms":[[0,0]]}]}]}`
	if _, err := ReadSetJSON(strings.NewReader(bad2), nil); err == nil {
		t.Fatal("zero exponent should error")
	}
}

// writeBinary encodes src the way WriteSet(FormatBinary) does.
func writeBinary(tb testing.TB, src polynomial.SetSource) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := WriteSet(&buf, src, FormatBinary); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func TestBinaryRoundTrip(t *testing.T) {
	set := sampleSet(t)
	data := writeBinary(t, set)
	if !bytes.HasPrefix(data, v3Magic) {
		t.Fatalf("FormatBinary wrote magic %q, want v3", data[:len(v3Magic)])
	}
	back, format, err := ReadSet(bytes.NewReader(data), nil)
	if err != nil {
		t.Fatal(err)
	}
	if format != FormatBinary || !setsEqual(set, back) {
		t.Fatalf("binary round trip: format %q\n%s\nvs\n%s", format, back, set)
	}
}

// TestBinaryRejectsGarbage: the streaming reader reads binary only, so
// anything without a magic — text, an empty input, half a magic — is an
// error, and one that leaves no spill directory behind.
func TestBinaryRejectsGarbage(t *testing.T) {
	for _, in := range []string{"not the magic", "", "CPRVB", "CPRVB9\n\x00\x00", "k\t2*x\n"} {
		dir := t.TempDir()
		ss, err := ReadSetStream(strings.NewReader(in), nil, polynomial.ShardOptions{MaxResidentMonomials: 8, SpillDir: dir})
		if err == nil {
			ss.Close()
			t.Fatalf("ReadSetStream(%q) succeeded", in)
		}
		if !errors.Is(err, errNotBinary) {
			t.Errorf("ReadSetStream(%q): %v, want errNotBinary", in, err)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Errorf("ReadSetStream(%q) left %d entries in its spill dir", in, len(left))
		}
	}
}

func TestBinaryLargeRandomRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	names := polynomial.NewNames()
	set := polynomial.NewSet(names)
	for v := 0; v < 50; v++ {
		names.Var(strings.Repeat("v", 1+v%3) + string(rune('a'+v%26)) + string(rune('0'+v%10)))
	}
	for g := 0; g < 40; g++ {
		var b polynomial.Builder
		for m := 0; m < r.Intn(60); m++ {
			var terms []polynomial.Term
			for k := 0; k < r.Intn(4); k++ {
				terms = append(terms, polynomial.TExp(polynomial.Var(r.Intn(50)), int32(1+r.Intn(4))))
			}
			b.Add(r.NormFloat64()*100, terms...)
		}
		set.Add(strings.Repeat("g", 1+g%4)+string(rune('0'+g%10)), b.Polynomial())
	}
	back, _, err := ReadSet(bytes.NewReader(writeBinary(t, set)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != set.Size() || back.Len() != set.Len() {
		t.Fatalf("size mismatch: %d/%d vs %d/%d", back.Size(), back.Len(), set.Size(), set.Len())
	}
	// Evaluation agreement under a random valuation is a strong equality
	// check independent of printing.
	vals := make([]float64, 50)
	for i := range vals {
		vals[i] = r.Float64()*2 - 1
	}
	for i := range set.Polys {
		a := set.Polys[i].EvalDense(vals)
		b := back.Polys[i].EvalDense(vals)
		if diff := a - b; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("poly %d: %v vs %v", i, a, b)
		}
	}
}

// TestBinaryReadsLegacyFullTableStreams: v1 files written before the
// used-vars-only table (the old writer emitted the entire namespace and
// raw Var ids as indices) must still decode unchanged. The fixture is that
// file: a three-name table (unused0, x, y) and "k" = 7 + 2*x*y referencing
// x and y by their raw ids 1 and 2.
func TestBinaryReadsLegacyFullTableStreams(t *testing.T) {
	data, err := os.ReadFile("testdata/legacy/v1-full-namespace.bin")
	if err != nil {
		t.Fatal(err)
	}
	set, _, err := ReadSet(bytes.NewReader(data), nil)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 1 || set.Keys[0] != "k" {
		t.Fatalf("legacy decode: %v", set.Keys)
	}
	if got := set.Polys[0].String(set.Names); got != "7 + 2*x*y" {
		t.Fatalf("legacy decode: %q", got)
	}
	// The legacy stream interned its full table, unused names included —
	// that is precisely the leak the used-vars table fixed.
	if set.Names.Len() != 3 {
		t.Fatalf("legacy namespace: %d vars", set.Names.Len())
	}
}

// TestBinaryRejectsOutOfRangeVars: a Term whose Var is outside the
// namespace must be an explicit write error, not a silently corrupt
// stream (the old writer truncated it through a uint32 cast). Reading
// is the mirror image: a term naming variable 5 of a one-name table is
// an error in the v1/v2 body and in the v3 shard payload, so no decoded
// Var is ever outside the namespace (Names.Name cannot be handed one).
func TestBinaryRejectsOutOfRangeVars(t *testing.T) {
	v1 := "CPRVB1\n\x01\x01x\x01\x01k\x01\x00\x00\x00\x00\x00\x00\xf0\x3f\x01\x05\x01"
	if _, _, err := ReadSet(strings.NewReader(v1), nil); err == nil || !strings.Contains(err.Error(), "variable index 5 out of range") {
		t.Fatalf("v1 body with a variable past its table: %v", err)
	}
	if _, _, err := decodeV3Payload([]byte("\x01\x01x\x01\x01\x01\x01k\x01\x01\x04\x01\x05\x00"), polynomial.NewNames(), 0, false, nil); err == nil || !strings.Contains(err.Error(), "variable index 5 out of range") {
		t.Fatalf("v3 payload with a variable past its table: %v", err)
	}

	names := polynomial.NewNames()
	names.Var("x")
	set := polynomial.NewSet(names)
	set.Add("k", polynomial.Polynomial{Mons: []polynomial.Monomial{
		{Coef: 1, Terms: []polynomial.Term{{Var: 99, Exp: 1}}},
	}})
	if err := WriteSet(&bytes.Buffer{}, set, FormatBinary); err == nil {
		t.Fatal("out-of-namespace variable should be a write error")
	}
	if err := WriteSetJSON(&bytes.Buffer{}, set); err == nil {
		t.Fatal("out-of-namespace variable should be a JSON write error")
	}
	neg := polynomial.NewSet(names)
	neg.Add("k", polynomial.Polynomial{Mons: []polynomial.Monomial{
		{Coef: 1, Terms: []polynomial.Term{{Var: -5, Exp: 1}}},
	}})
	if err := WriteSet(&bytes.Buffer{}, neg, FormatBinary); err == nil {
		t.Fatal("negative variable should be a write error")
	}
}

// TestBinaryRejectsNonPositiveExponents: exponents the varint columns
// cannot hold are rejected on write.
func TestBinaryRejectsNonPositiveExponents(t *testing.T) {
	names := polynomial.NewNames()
	x := names.Var("x")
	set := polynomial.NewSet(names)
	set.Add("k", polynomial.Polynomial{Mons: []polynomial.Monomial{
		{Coef: 1, Terms: []polynomial.Term{{Var: x, Exp: -2}}},
	}})
	if err := WriteSet(&bytes.Buffer{}, set, FormatBinary); err == nil {
		t.Fatal("negative exponent should be a write error")
	}
	if err := WriteSetJSON(&bytes.Buffer{}, set); err == nil {
		t.Fatal("negative exponent should be a JSON write error")
	}
}

// TestWritersEmitOnlyUsedVars: interned-but-unused variables (e.g. leaves
// abstracted away by a cut, or unrelated sets sharing a namespace) must
// not leak into binary or JSON files.
func TestWritersEmitOnlyUsedVars(t *testing.T) {
	names := polynomial.NewNames()
	set := polynomial.NewSet(names)
	set.Add("k", polynomial.MustParse("2*keep1*keep2 + 3*keep3", names))
	for i := 0; i < 100; i++ {
		names.Var(fmt.Sprintf("unused%d", i))
	}
	check := func(encode func(*bytes.Buffer) error, decode func(*bytes.Buffer, *polynomial.Names) (*polynomial.Set, error), what string) {
		t.Helper()
		var buf bytes.Buffer
		if err := encode(&buf); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		fresh := polynomial.NewNames()
		back, err := decode(&buf, fresh)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if fresh.Len() != 3 {
			t.Fatalf("%s: decoded namespace has %d vars, want only the 3 used", what, fresh.Len())
		}
		if !setsEqual(set, back) {
			t.Fatalf("%s: round trip mismatch", what)
		}
	}
	check(func(b *bytes.Buffer) error { return WriteSet(b, set, FormatBinary) },
		func(b *bytes.Buffer, n *polynomial.Names) (*polynomial.Set, error) {
			s, _, err := ReadSet(b, n)
			return s, err
		},
		"binary")
	check(func(b *bytes.Buffer) error { return WriteSetJSON(b, set) },
		func(b *bytes.Buffer, n *polynomial.Names) (*polynomial.Set, error) { return ReadSetJSON(b, n) },
		"JSON")
}

func TestAssignmentJSONRoundTrip(t *testing.T) {
	names := polynomial.NewNames()
	a := valuation.New(names)
	a.SetVar(names.Var("m3"), 0.8)
	a.SetVar(names.Var("b1"), 1.1)
	var buf bytes.Buffer
	if err := WriteAssignmentJSON(&buf, a); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAssignmentJSON(&buf, names)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("entries = %d", back.Len())
	}
	m3, _ := names.Lookup("m3")
	if back.Get(m3) != 0.8 {
		t.Fatal("value mismatch")
	}
	if _, err := ReadAssignmentJSON(strings.NewReader("nope"), names); err == nil {
		t.Fatal("bad JSON should error")
	}
}

// TestAssignmentJSONAnyOrder: the decoder interns in name order, which can
// be the opposite of Var order; it must still build the assignment in
// O(n log n) — 200 000 out-of-order inserts would take tens of seconds —
// and hold what a map holds.
func TestAssignmentJSONAnyOrder(t *testing.T) {
	const n = 200_000
	names := polynomial.NewNames()
	want := make(map[polynomial.Var]float64, n)
	var buf bytes.Buffer
	buf.WriteByte('{')
	for i := n - 1; i >= 0; i-- { // the last name in sorted order is Var 0
		v := names.Var(fmt.Sprintf("v%06d", i))
		want[v] = float64(i%9) / 4
		fmt.Fprintf(&buf, "%q:%v,", names.Name(v), want[v])
	}
	// One name the namespace has not seen: interned after all the others.
	buf.WriteString(`"a_new_name":3}`)
	start := time.Now()
	got, err := ReadAssignmentJSON(&buf, names)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("decoding %d entries took %v", n, d)
	}
	fresh, ok := names.Lookup("a_new_name")
	if !ok || int(fresh) != n {
		t.Fatalf("a_new_name is Var %d (known %v), want %d", fresh, ok, n)
	}
	want[fresh] = 3
	if got.Len() != len(want) {
		t.Fatalf("%d entries, want %d", got.Len(), len(want))
	}
	for v, x := range want {
		if !got.Has(v) || got.Get(v) != x {
			t.Fatalf("%s = %v (explicit %v), want %v", names.Name(v), got.Get(v), got.Has(v), x)
		}
	}
}
