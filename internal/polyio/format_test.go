package polyio

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"github.com/cobra-prov/cobra/internal/polynomial"
)

type encoding struct {
	data []byte
	want Format
}

// encodings writes set once in every encoding a writer here produces — the
// three WriteSet formats from an in-memory and from a sharded source, plus
// both v3 flavours straight from the stream writer — each with the Format
// ReadSet must report for it.
func encodings(t testing.TB, set *polynomial.Set) map[string]encoding {
	t.Helper()
	ss, err := polynomial.BuildSharded(set, polynomial.ShardOptions{TargetMonomials: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	out := map[string]encoding{}
	add := func(name string, want Format, write func(io.Writer) error) {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = encoding{buf.Bytes(), want}
	}
	for _, f := range []Format{FormatText, FormatJSON, FormatBinary} {
		add(string(f)+"/set", f, func(w io.Writer) error { return WriteSet(w, set, f) })
		add(string(f)+"/sharded", f, func(w io.Writer) error { return WriteSet(w, ss, f) })
	}
	add("v3/raw", FormatBinary, func(w io.Writer) error { return WriteSetStreamV3(w, ss, V3Options{}) })
	add("v3/deflate", FormatBinary, func(w io.Writer) error { return WriteSetStreamV3(w, ss, V3Options{Compress: true}) })
	return out
}

// TestReadSetDetectsFormat: every encoding reads back equal through the one
// sniffing reader, which reports the format it was written in.
func TestReadSetDetectsFormat(t *testing.T) {
	set := sampleSet(t)
	for name, enc := range encodings(t, set) {
		back, got, err := ReadSet(bytes.NewReader(enc.data), nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != enc.want {
			t.Errorf("%s: detected %q, want %q", name, got, enc.want)
		}
		if !setsEqual(set, back) {
			t.Errorf("%s: round trip changed the set:\n%s\nvs\n%s", name, back, set)
		}
	}

	for name, tc := range map[string]struct {
		input string
		want  Format
		size  int
	}{
		"text without header": {"k\t2*x + 3*y\n", FormatText, 2},
		"indented JSON":       {"\n  {\"variables\":[\"x\"],\"polynomials\":[{\"key\":\"k\",\"monomials\":[{\"coef\":2,\"terms\":[[0,1]]}]}]}", FormatJSON, 1},
		"empty input":         {"", FormatText, 0},
	} {
		back, got, err := ReadSet(strings.NewReader(tc.input), nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != tc.want || back.Size() != tc.size {
			t.Errorf("%s: detected %q with %d monomials, want %q with %d", name, got, back.Size(), tc.want, tc.size)
		}
	}

	for _, f := range []Format{"yaml", "stream", ""} {
		err := WriteSet(io.Discard, set, f)
		if err == nil || !strings.Contains(err.Error(), string(FormatBinary)) {
			t.Errorf("WriteSet(%q): %v, want an error naming the formats", f, err)
		}
	}
	if _, _, err := ReadSet(bytes.NewReader(append([]byte(nil), v3Magic...)), nil); err == nil {
		t.Error("ReadSet accepted a bare magic")
	}
}

// FuzzReadSet: arbitrary bytes through the sniffing reader decode or fail
// cleanly — never panic — and whatever decodes re-encodes in the format it
// was detected as and is detected as that format again.
func FuzzReadSet(f *testing.F) {
	for _, enc := range encodings(f, sampleSet(f)) {
		f.Add(enc.data)
		f.Add(enc.data[:len(enc.data)/2])
	}
	for _, fx := range loadFixtures(f, "legacy") {
		f.Add(fx.data)
	}
	for _, in := range hostileInputs {
		f.Add(in)
	}
	// The seeds of FuzzReadSetText.
	for _, s := range []string{
		"# cobra provenance set v1\nk\t2*x\n",
		"\"# quoted\"\t1 + p1*m1\n",
		"  \t3*y^2\nk2\t-1\n",
		"no tab",
		"",
		" {",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		set, format, err := ReadSet(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteSet(&buf, set, format); err != nil {
			t.Fatalf("decoded %s set failed to re-encode: %v", format, err)
		}
		back, again, err := ReadSet(&buf, nil)
		if err != nil {
			t.Fatalf("re-encoded %s set failed to decode: %v", format, err)
		}
		if again != format || back.Len() != set.Len() {
			t.Fatalf("%s set of %d polynomials re-read as %s of %d", format, set.Len(), again, back.Len())
		}
	})
}
