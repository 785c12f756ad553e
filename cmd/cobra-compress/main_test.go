package main

import (
	"os"
	"path/filepath"
	"testing"

	cobra "github.com/cobra-prov/cobra"
)

// writeFixtures creates a provenance file and a matching tree file.
func writeFixtures(t *testing.T) (provPath, treePath string) {
	t.Helper()
	dir := t.TempDir()
	provPath = filepath.Join(dir, "prov.txt")
	treePath = filepath.Join(dir, "tree.json")
	prov := "# cobra provenance set v1\n" +
		"g1\t3*a*m + 4*b*m + 5*c*m\n" +
		"g2\t6*a*m + 7*c*m\n"
	tree := `{"name":"R","children":[
		{"name":"AB","children":[{"name":"a"},{"name":"b"}]},
		{"name":"c"}]}`
	if err := os.WriteFile(provPath, []byte(prov), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(treePath, []byte(tree), 0o644); err != nil {
		t.Fatal(err)
	}
	return provPath, treePath
}

func TestCompressDP(t *testing.T) {
	prov, tree := writeFixtures(t)
	out := filepath.Join(t.TempDir(), "comp.txt")
	if err := run(prov, tree, 4, "dp", out, ""); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	set, format, err := cobra.ReadSet(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if format != cobra.FormatText {
		t.Fatalf("output format = %q, want the input's (text)", format)
	}
	// Merging a,b into AB: g1 has (AB, c), g2 has (a->AB, c) => 4 monomials.
	if set.Size() != 4 {
		t.Fatalf("compressed size = %d, want 4", set.Size())
	}
}

func TestCompressGreedyAndFormats(t *testing.T) {
	prov, tree := writeFixtures(t)
	out := filepath.Join(t.TempDir(), "comp.json")
	if err := run(prov, tree, 4, "greedy", out, "json"); err != nil {
		t.Fatal(err)
	}
	f, _ := os.Open(out)
	defer f.Close()
	set, format, err := cobra.ReadSet(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if format != cobra.FormatJSON {
		t.Fatalf("output format = %q, want json", format)
	}
	if set.Size() > 4 {
		t.Fatalf("greedy exceeded bound: %d", set.Size())
	}
}

func TestCompressErrors(t *testing.T) {
	prov, tree := writeFixtures(t)
	if err := run(prov, "", 4, "dp", "-", ""); err == nil {
		t.Fatal("missing tree should fail")
	}
	if err := run(prov, tree, 0, "dp", "-", ""); err == nil {
		t.Fatal("missing bound should fail")
	}
	if err := run(prov, tree, 4, "nope", "-", ""); err == nil {
		t.Fatal("unknown algorithm should fail")
	}
	if err := run(prov, tree, 4, "dp", filepath.Join(t.TempDir(), "out"), "nope"); err == nil {
		t.Fatal("unknown output format should fail")
	}
	if err := run("/no/such/file", tree, 4, "dp", "-", ""); err == nil {
		t.Fatal("missing input should fail")
	}
	if err := run(prov, "/no/such/tree", 4, "dp", "-", ""); err == nil {
		t.Fatal("missing tree file should fail")
	}
	if err := run(prov, tree, 1, "dp", "-", ""); err == nil {
		t.Fatal("infeasible bound should fail")
	}
}
