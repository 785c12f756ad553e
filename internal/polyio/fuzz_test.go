package polyio

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"github.com/cobra-prov/cobra/internal/polynomial"
)

// TestBinaryTruncationNeverPanics: every proper prefix of a valid binary
// stream of any version must fail cleanly in the in-memory reader, and the
// complete stream must read. (TestStreamTruncationDetected cuts the same
// corpus under the streaming reader.)
func TestBinaryTruncationNeverPanics(t *testing.T) {
	for _, fx := range binaryCorpus(t) {
		for cut := len(binaryMagic); cut < len(fx.data); cut++ {
			_, _, err := ReadSet(bytes.NewReader(fx.data[:cut]), nil)
			if err == nil {
				t.Fatalf("%s: truncation at %d of %d decoded successfully", fx.name, cut, len(fx.data))
			}
			if errors.Is(err, io.EOF) {
				t.Fatalf("%s: truncation at %d reads as a clean EOF: %v", fx.name, cut, err)
			}
		}
		got, _, err := ReadSet(bytes.NewReader(fx.data), nil)
		if err != nil {
			t.Fatalf("%s: full stream failed: %v", fx.name, err)
		}
		if !setsEquivalent(fx.want, got) {
			t.Fatalf("%s: full stream decodes differently", fx.name)
		}
	}
}

// TestBinaryBitflipsNeverPanic: corrupted streams must not panic in either
// reader (errors and — for payload-only flips of the unchecksummed legacy
// versions — silent value changes are acceptable), and a failed streaming
// read takes its spill files with it.
func TestBinaryBitflipsNeverPanic(t *testing.T) {
	r := rand.New(rand.NewSource(151))
	for _, fx := range binaryCorpus(t) {
		if len(fx.data) <= len(binaryMagic) {
			continue
		}
		dir := t.TempDir()
		for trial := 0; trial < 200; trial++ {
			data := append([]byte(nil), fx.data...)
			flips := 1 + r.Intn(4)
			for f := 0; f < flips; f++ {
				pos := r.Intn(len(data))
				data[pos] ^= 1 << uint(r.Intn(8))
			}
			_, _, _ = ReadSet(bytes.NewReader(data), nil)
			ss, err := ReadSetStream(bytes.NewReader(data), nil, polynomial.ShardOptions{MaxResidentMonomials: 100, SpillDir: dir})
			if err == nil {
				ss.Close()
			}
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Errorf("%s: %d entries left in the spill dir", fx.name, len(left))
		}
	}
}

// hostileInputs claim far more than they hold. The first two name 2^28-17
// variables in 11 and 12 bytes: a v1 body and a v2 shard frame whose
// variable count is the largest the reader accepts, followed by nothing.
var hostileInputs = [][]byte{
	[]byte("CPRVB1\n\xef\xff\xff\x7f"),
	[]byte("CPRVB2\nS\xef\xff\xff\x7f"),
	// The v3 analogues: a shard frame claiming 2^30 stored bytes, and a
	// one-byte DEFLATE payload claiming to inflate to 2^30.
	[]byte("CPRVB3\nS\x00\x80\x80\x80\x80\x04\x80\x80\x80\x80\x04"),
	[]byte("CPRVB3\nS\x01\x80\x80\x80\x80\x04\x01\x00"),
}

// TestHostileCountsAllocateLittle: a count is a claim, not a size. These
// inputs used to allocate 1 GiB (the name remap of the v1/v2 body reader,
// the v3 payload and inflate buffers) before noticing the stream had ended.
func TestHostileCountsAllocateLittle(t *testing.T) {
	for _, in := range hostileInputs {
		for _, read := range []func() error{
			func() error { _, _, err := ReadSet(bytes.NewReader(in), nil); return err },
			func() error {
				ss, err := ReadSetStream(bytes.NewReader(in), nil, polynomial.ShardOptions{MaxResidentMonomials: 16, SpillDir: t.TempDir()})
				if err == nil {
					ss.Close()
				}
				return err
			},
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := read()
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%q decoded", in)
			} else if errors.Is(err, io.EOF) || !strings.HasPrefix(err.Error(), "polyio:") {
				t.Errorf("%q: %v, want a polyio: error that is not a clean EOF", in, err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Errorf("%q allocated %d bytes", in, got)
			}
		}
	}
}

// TestTextGarbageNeverPanics feeds random lines to the text reader.
func TestTextGarbageNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(157))
	alphabet := []byte("abc123*^+-.\t\n #:")
	for trial := 0; trial < 3000; trial++ {
		n := r.Intn(64)
		data := make([]byte, n)
		for i := range data {
			data[i] = alphabet[r.Intn(len(alphabet))]
		}
		_, _ = ReadSetText(bytes.NewReader(data), nil)
	}
}

// TestJSONGarbageNeverPanics feeds mutated JSON to the JSON reader.
func TestJSONGarbageNeverPanics(t *testing.T) {
	set := sampleSet(t)
	var buf bytes.Buffer
	if err := WriteSetJSON(&buf, set); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	r := rand.New(rand.NewSource(163))
	for trial := 0; trial < 2000; trial++ {
		data := append([]byte(nil), orig...)
		pos := r.Intn(len(data))
		data[pos] = byte(r.Intn(256))
		_, _ = ReadSetJSON(bytes.NewReader(data), nil)
	}
	var roundTrip polynomial.Polynomial
	_ = roundTrip
}

// FuzzReadSetText: arbitrary text must decode or fail cleanly, and any
// set that decodes must survive a write→read round trip with its keys
// intact — including keys the writer has to quote (leading '#',
// whitespace, embedded tabs).
func FuzzReadSetText(f *testing.F) {
	f.Add("# cobra provenance set v1\nk\t2*x\n")
	f.Add("\"# quoted\"\t1 + p1*m1\n")
	f.Add("  \t3*y^2\nk2\t-1\n")
	f.Add("no tab")
	f.Add("")
	f.Fuzz(func(t *testing.T, data string) {
		set, err := ReadSetText(strings.NewReader(data), nil)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteSetText(&buf, set); err != nil {
			t.Fatalf("decoded set failed to re-encode: %v", err)
		}
		back, err := ReadSetText(&buf, nil)
		if err != nil {
			t.Fatalf("re-encoded set failed to decode: %v", err)
		}
		if back.Len() != set.Len() {
			t.Fatalf("round trip changed length: %d -> %d", set.Len(), back.Len())
		}
		for i := range set.Keys {
			if back.Keys[i] != set.Keys[i] {
				t.Fatalf("key %d: %q round-tripped as %q", i, set.Keys[i], back.Keys[i])
			}
		}
	})
}

// FuzzReadSetBinary is the native-fuzzing entry point behind CI's
// fuzz-smoke step for the one binary reader: arbitrary bytes must decode or
// fail cleanly; the in-memory and the streaming reader must agree on
// whether they decode and on what; and anything that decodes must re-encode
// as v3 and decode again to the same set.
func FuzzReadSetBinary(f *testing.F) {
	for _, fx := range binaryCorpus(f) {
		f.Add(fx.data)
	}
	for _, in := range hostileInputs {
		f.Add(in)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var first *polynomial.Set
		ss, err := ReadSetStream(bytes.NewReader(data), nil, polynomial.ShardOptions{MaxResidentMonomials: 256, SpillDir: t.TempDir()})
		if err == nil {
			first, err = ss.Materialize()
			ss.Close()
			if err != nil {
				t.Fatalf("decoded stream failed to materialize: %v", err)
			}
		}
		if first == nil {
			if errors.Is(err, errNotBinary) {
				return // text or JSON to ReadSet: FuzzReadSet's subject
			}
			if _, _, err2 := ReadSet(bytes.NewReader(data), nil); err2 == nil {
				t.Fatalf("ReadSet decoded what ReadSetStream rejected: %v", err)
			}
			return
		}
		inMemory, format, err := ReadSet(bytes.NewReader(data), nil)
		if err != nil || format != FormatBinary {
			t.Fatalf("ReadSet (%q, %v) on what ReadSetStream decoded", format, err)
		}
		if !setsEquivalent(first, inMemory) {
			t.Fatal("ReadSet and ReadSetStream decode differently")
		}
		var buf bytes.Buffer
		if err := WriteSet(&buf, first, FormatBinary); err != nil {
			t.Fatalf("decoded set failed to re-encode: %v", err)
		}
		second, _, err := ReadSet(&buf, nil)
		if err != nil {
			t.Fatalf("re-encoded set failed to decode: %v", err)
		}
		if !setsEquivalent(first, second) {
			t.Fatal("v3 re-encoding changed the set")
		}
	})
}
