package polyio

import (
	"bytes"
	"testing"

	"github.com/cobra-prov/cobra/internal/polynomial"
)

// TestCloneNamespaceSerializesIdentically pins the serialized bytes of
// a set against namespace cloning: polynomial.Names.Clone rebuilds its
// name→Var index from the ordered names slice (no map iteration), so a
// set serialized under a cloned namespace must be byte-identical to the
// original in every format. A regression that lets map visit order
// reach Clone (or the writers) breaks the exact-bytes pin below.
func TestCloneNamespaceSerializesIdentically(t *testing.T) {
	names := polynomial.NewNames()
	// Intern in deliberately non-alphabetical order: the namespace's
	// Var order (z, a, m) must survive cloning and serialization.
	names.Vars("z", "a", "m")
	set := polynomial.NewSet(names)
	if err := set.Add("g1", polynomial.MustParse("2*z*a + m^3", names)); err != nil {
		t.Fatal(err)
	}
	if err := set.Add("g2", polynomial.MustParse("a + 4", names)); err != nil {
		t.Fatal(err)
	}

	cloned := &polynomial.Set{Names: names.Clone(), Keys: set.Keys, Polys: set.Polys}

	type format struct {
		name  string
		write func(*bytes.Buffer, *polynomial.Set) error
	}
	formats := []format{
		{"text", func(b *bytes.Buffer, s *polynomial.Set) error { return WriteSetText(b, s) }},
		{"json", func(b *bytes.Buffer, s *polynomial.Set) error { return WriteSetJSON(b, s) }},
		{"binary", func(b *bytes.Buffer, s *polynomial.Set) error { return WriteSet(b, s, FormatBinary) }},
	}
	for _, f := range formats {
		var orig, clone bytes.Buffer
		if err := f.write(&orig, set); err != nil {
			t.Fatalf("%s: write original: %v", f.name, err)
		}
		if err := f.write(&clone, cloned); err != nil {
			t.Fatalf("%s: write clone: %v", f.name, err)
		}
		if !bytes.Equal(orig.Bytes(), clone.Bytes()) {
			t.Errorf("%s: cloned namespace changed serialized bytes\noriginal: %q\nclone:    %q",
				f.name, orig.Bytes(), clone.Bytes())
		}
	}

	// Exact-bytes pin for the text format: if any map iteration starts
	// influencing writer output (or Clone), this stops being stable.
	var txt bytes.Buffer
	if err := WriteSetText(&txt, cloned); err != nil {
		t.Fatal(err)
	}
	const want = "# cobra provenance set v2\ng1\t2*z*a + m^3\ng2\t4 + a\n"
	if txt.String() != want {
		t.Errorf("pinned text output changed:\ngot:  %q\nwant: %q", txt.String(), want)
	}
}

// TestCloneIndependent pins Clone's semantics: interning into the clone
// must not leak into the original, and vice versa, while shared names
// keep their Vars.
func TestCloneIndependent(t *testing.T) {
	names := polynomial.NewNames()
	vz := names.Var("z")
	c := names.Clone()
	if v, ok := c.Lookup("z"); !ok || v != vz {
		t.Fatalf("clone lost z: %v %v", v, ok)
	}
	cNew := c.Var("only-in-clone")
	if _, ok := names.Lookup("only-in-clone"); ok {
		t.Fatal("interning into clone leaked into original")
	}
	if got := c.Name(cNew); got != "only-in-clone" {
		t.Fatalf("clone Name(%d) = %q", cNew, got)
	}
	if names.Len() != 1 || c.Len() != 2 {
		t.Fatalf("lens: orig %d clone %d", names.Len(), c.Len())
	}
}
