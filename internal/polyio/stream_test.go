package polyio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/cobra-prov/cobra/internal/polynomial"
)

// randomSet builds a pseudo-random set with weird-but-writable content.
func randomSet(seed int64, polys int) *polynomial.Set {
	r := rand.New(rand.NewSource(seed))
	names := polynomial.NewNames()
	set := polynomial.NewSet(names)
	nVars := 1 + r.Intn(40)
	vars := make([]polynomial.Var, nVars)
	for i := range vars {
		vars[i] = names.Var(fmt.Sprintf("v%d", i))
	}
	for g := 0; g < polys; g++ {
		var b polynomial.Builder
		for m := 0; m < r.Intn(12); m++ {
			var terms []polynomial.Term
			for k := 0; k < r.Intn(4); k++ {
				terms = append(terms, polynomial.TExp(vars[r.Intn(nVars)], int32(1+r.Intn(5))))
			}
			b.Add(r.NormFloat64()*10, terms...)
		}
		set.Add(fmt.Sprintf("key#%d\twith junk", g), b.Polynomial())
	}
	return set
}

// polyToCommon remaps a polynomial into a shared namespace by variable
// name, re-canonicalizing. Two decodes of the same provenance can assign
// different Var ids (frames intern shard-by-shard), which permutes canonical
// monomial order; comparison must therefore be namespace-independent.
func polyToCommon(p polynomial.Polynomial, from, common *polynomial.Names) polynomial.Polynomial {
	table := make([]polynomial.Var, from.Len())
	for v := range table {
		table[v] = common.Var(from.Name(polynomial.Var(v)))
	}
	in, out := polynomial.NewSet(from), polynomial.NewSet(common)
	in.Add("p", p)
	if err := polynomial.MapSource(in, out, table, 1); err != nil {
		panic(err) // a *Set fails neither as a source nor as a sink
	}
	return out.Polys[0]
}

// setsEquivalent reports semantic equality: same key sequence, and the same
// polynomials — coefficients compared by their bits, so NaN equals itself
// and -0 is not 0 — once both sides are mapped into one namespace by name.
func setsEquivalent(a, b *polynomial.Set) bool {
	if a.Len() != b.Len() {
		return false
	}
	common := polynomial.NewNames()
	for i := range a.Keys {
		if a.Keys[i] != b.Keys[i] {
			return false
		}
		p, q := polyToCommon(a.Polys[i], a.Names, common), polyToCommon(b.Polys[i], b.Names, common)
		if len(p.Mons) != len(q.Mons) {
			return false
		}
		for m := range p.Mons {
			if math.Float64bits(p.Mons[m].Coef) != math.Float64bits(q.Mons[m].Coef) ||
				polynomial.CompareTerms(p.Mons[m].Terms, q.Mons[m].Terms) != 0 {
				return false
			}
		}
	}
	return true
}

// materializeStream reads a binary stream through the sequential reader.
func materializeStream(t *testing.T, data []byte) *polynomial.Set {
	t.Helper()
	set, format, err := ReadSet(bytes.NewReader(data), nil)
	if err != nil {
		t.Fatal(err)
	}
	if format != FormatBinary {
		t.Fatalf("binary stream detected as %q", format)
	}
	return set
}

// fixture is one checked-in binary file with the set it must read as.
type fixture struct {
	name string
	data []byte
	want *polynomial.Set
}

// loadFixtures returns every testdata/<dir>/*.bin beside its expected text
// form. testdata/legacy holds v1 and v2 files written once by the last
// commit that had their writers (sample set, awkward keys, exponents > 1,
// a multi-shard stream from a spilled source, empty sets, and the hand-built
// whole-namespace v1 file); testdata/v3 holds v3 files from that commit.
func loadFixtures(tb testing.TB, dir string) []fixture {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", dir, "*.bin"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no fixtures in testdata/%s (%v)", dir, err)
	}
	out := make([]fixture, len(paths))
	for i, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		text, err := os.Open(strings.TrimSuffix(path, ".bin") + ".txt")
		if err != nil {
			tb.Fatal(err)
		}
		want, err := ReadSetText(text, nil)
		text.Close()
		if err != nil {
			tb.Fatalf("%s: %v", path, err)
		}
		out[i] = fixture{strings.TrimSuffix(filepath.Base(path), ".bin"), data, want}
	}
	return out
}

// readStreamBudgeted reads data through ReadSetStream under budget and
// checks the budget held, the spill directory is the set's own and is gone
// after Close.
func readStreamBudgeted(t *testing.T, what string, data []byte, budget int) *polynomial.Set {
	t.Helper()
	dir := t.TempDir()
	ss, err := ReadSetStream(bytes.NewReader(data), nil, polynomial.ShardOptions{MaxResidentMonomials: budget, SpillDir: dir})
	if err != nil {
		t.Fatalf("%s: ReadSetStream: %v", what, err)
	}
	if peak := ss.PeakResidentMonomials(); peak > budget {
		t.Errorf("%s: reader peak %d exceeds budget %d", what, peak, budget)
	}
	if ss.Size() > budget && ss.SpilledShards() == 0 {
		t.Errorf("%s: %d monomials under budget %d and nothing spilled", what, ss.Size(), budget)
	}
	mat, err := ss.Materialize()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if err := ss.Close(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("%s: %d entries left in the spill dir after Close", what, len(left))
	}
	return mat
}

// TestLegacyFixtures: every v1 and v2 file written by the commit that still
// had their writers reads to its expected text through both readers — into
// memory, and into a ShardedSet under a budget far below the file's own
// shard size — and is reported as FormatBinary.
func TestLegacyFixtures(t *testing.T) {
	seen := map[string]bool{}
	for _, fx := range loadFixtures(t, "legacy") {
		seen[fx.name[:2]] = true
		got, format, err := ReadSet(bytes.NewReader(fx.data), nil)
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		if format != FormatBinary {
			t.Errorf("%s: detected %q", fx.name, format)
		}
		if !setsEquivalent(fx.want, got) {
			t.Errorf("%s: ReadSet differs from the expected text:\n%s\nvs\n%s", fx.name, got, fx.want)
		}
		if !setsEquivalent(fx.want, readStreamBudgeted(t, fx.name, fx.data, 40)) {
			t.Errorf("%s: ReadSetStream differs from the expected text", fx.name)
		}
	}
	if !seen["v1"] || !seen["v2"] {
		t.Fatalf("fixtures cover %v, want v1 and v2", seen)
	}
}

// TestV3FixturesByteIdentical: v3's bytes are product surface. The same
// source must encode to exactly the file the parent commit wrote, and that
// file must read back to its text through every reader.
func TestV3FixturesByteIdentical(t *testing.T) {
	set := randomSet(7, 50)
	for _, fx := range loadFixtures(t, "v3") {
		if now := encodeV3(t, set, strings.HasSuffix(fx.name, "deflate")); !bytes.Equal(now, fx.data) {
			t.Errorf("%s: WriteSetStreamV3 no longer writes the checked-in bytes (%d vs %d bytes)", fx.name, len(now), len(fx.data))
		}
		if !setsEquivalent(fx.want, materializeStream(t, fx.data)) {
			t.Errorf("%s: ReadSet differs from the expected text", fx.name)
		}
		if !setsEquivalent(fx.want, readStreamBudgeted(t, fx.name, fx.data, 40)) {
			t.Errorf("%s: ReadSetStream differs from the expected text", fx.name)
		}
		ix, err := OpenIndexedSet(bytes.NewReader(fx.data), int64(len(fx.data)), nil)
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		back, err := materializeIndexed(ix)
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		if !setsEquivalent(fx.want, back) {
			t.Errorf("%s: indexed read differs from the expected text", fx.name)
		}
	}
}

// TestStreamRoundTrip: a sharded source written as FormatBinary keeps its
// shards as frames and reads back through the sequential reader.
func TestStreamRoundTrip(t *testing.T) {
	set := randomSet(7, 50)
	ss, err := polynomial.BuildSharded(set, polynomial.ShardOptions{TargetMonomials: 30})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	data := writeBinary(t, ss)
	if !setsEquivalent(set, materializeStream(t, data)) {
		t.Fatal("binary stream round trip mismatch")
	}
	ix, err := OpenIndexedSet(bytes.NewReader(data), int64(len(data)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumShards() != ss.NumShards() || ss.NumShards() < 2 {
		t.Fatalf("%d shards written as %d frames", ss.NumShards(), ix.NumShards())
	}
}

func TestStreamSpilledRoundTrip(t *testing.T) {
	set := randomSet(11, 80)
	ss, err := polynomial.BuildSharded(set, polynomial.ShardOptions{
		TargetMonomials:      20,
		MaxResidentMonomials: 60,
		SpillDir:             t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if ss.SpilledShards() == 0 {
		t.Fatal("expected spilled shards")
	}
	data := writeBinary(t, ss)
	if peak := ss.PeakResidentMonomials(); peak > 60 {
		t.Fatalf("writer peak resident %d exceeds budget", peak)
	}
	if !setsEquivalent(set, readStreamBudgeted(t, "spilled", data, 60)) {
		t.Fatal("spilled stream round trip mismatch")
	}
}

// TestReadSetStreamHonorsSmallBudget: a reader budget far below the
// stream's own shard size must still hold — the reader re-shards
// polynomial-at-a-time instead of materializing incoming shards. A v1 body
// (one unframed record) gets the same treatment.
func TestReadSetStreamHonorsSmallBudget(t *testing.T) {
	set := randomSet(31, 120)
	data := writeBinary(t, set) // an in-memory Set is one frame
	if !setsEquivalent(set, readStreamBudgeted(t, "v3", data, set.Size()/6)) {
		t.Fatal("v3: round trip mismatch")
	}
	v1, err := os.ReadFile("testdata/legacy/v1-exponents.bin") // randomSet(7, 50)
	if err != nil {
		t.Fatal(err)
	}
	if set = randomSet(7, 50); !setsEquivalent(set, readStreamBudgeted(t, "v1", v1, set.Size()/6)) {
		t.Fatal("v1: round trip mismatch")
	}
}

// binaryCorpus is every binary stream the robustness tests cut and flip:
// the legacy fixtures plus a fresh multi-shard v3 encoding of each flavour.
func binaryCorpus(tb testing.TB) []fixture {
	set := randomSet(23, 30)
	return append(loadFixtures(tb, "legacy"),
		fixture{"v3-raw", encodeV3(tb, set, false), set},
		fixture{"v3-deflate", encodeV3(tb, set, true), set})
}

// TestStreamTruncationDetected: a binary stream of any version cut anywhere
// must error in both readers — never silently yield fewer polynomials
// (that is what v2's end frame and v3's footer are for, and why a v1 body
// cut at a field boundary is io.ErrUnexpectedEOF) — and the streaming
// reader must take its spill files with it.
func TestStreamTruncationDetected(t *testing.T) {
	for _, fx := range binaryCorpus(t) {
		dir := t.TempDir()
		for cut := 0; cut < len(fx.data); cut++ {
			ss, err := ReadSetStream(bytes.NewReader(fx.data[:cut]), nil, polynomial.ShardOptions{MaxResidentMonomials: 100, SpillDir: dir})
			if err == nil {
				ss.Close()
				t.Fatalf("%s: ReadSetStream of %d of %d bytes succeeded", fx.name, cut, len(fx.data))
			}
			if errors.Is(err, io.EOF) {
				t.Fatalf("%s: cut at %d reads as a clean EOF: %v", fx.name, cut, err)
			}
			if cut < len(binaryMagic) {
				continue // ReadSet takes a prefix of a magic for text
			}
			if _, _, err := ReadSet(bytes.NewReader(fx.data[:cut]), nil); err == nil {
				t.Fatalf("%s: ReadSet of %d of %d bytes succeeded", fx.name, cut, len(fx.data))
			}
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Errorf("%s: failed reads left %d entries in the spill dir", fx.name, len(left))
		}
	}
}

// TestSetWriterMisuse: a closed SetWriterV3 refuses shards and tolerates a
// second Close, and a stream of zero shards is valid.
func TestSetWriterMisuse(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewSetWriterV3(&buf, V3Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteShard(polynomial.NewSet(nil)); err == nil {
		t.Fatal("WriteShard after Close should error")
	}
	if err := sw.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
	set, _, err := ReadSet(bytes.NewReader(buf.Bytes()), nil)
	if err != nil || set.Len() != 0 {
		t.Fatalf("empty stream: %v", err)
	}
	if back := materializeStream(t, writeBinary(t, polynomial.NewSet(nil))); back.Len() != 0 {
		t.Fatalf("empty set round-tripped as %d polynomials", back.Len())
	}
}

// TestWriteSetStreamFromSet: an in-memory Set is a valid stream source —
// it writes as a single frame and reads back into both kinds of sink.
func TestWriteSetStreamFromSet(t *testing.T) {
	set := randomSet(21, 40)
	data := writeBinary(t, set)
	ix, err := OpenIndexedSet(bytes.NewReader(data), int64(len(data)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumShards() != 1 {
		t.Fatalf("a Set should write one frame, wrote %d", ix.NumShards())
	}
	if !setsEquivalent(set, materializeStream(t, data)) {
		t.Fatal("set→stream→ReadSet round trip differs")
	}
	if !setsEquivalent(set, readStreamBudgeted(t, "from set", data, 1+set.Size()/4)) {
		t.Fatal("set→stream→ReadSetStream round trip differs")
	}
}
