package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
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

// TestCompressLegacyBinaryInWritesV3: testdata/prov-v{1,2}.bin hold the
// writeFixtures set as written by the last commit with v1 and v2 writers.
// With no -out-format the output is "the input's format", and for a binary
// input of any version that is the one binary format written: v3.
func TestCompressLegacyBinaryInWritesV3(t *testing.T) {
	_, tree := writeFixtures(t)
	for _, in := range []string{"testdata/prov-v1.bin", "testdata/prov-v2.bin"} {
		out := filepath.Join(t.TempDir(), "comp.bin")
		if err := run(in, tree, 4, "dp", out, ""); err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, []byte("CPRVB3\n")) {
			t.Fatalf("%s: output starts %q, want the v3 magic", in, data[:min(7, len(data))])
		}
		set, format, err := cobra.ReadSet(bytes.NewReader(data), nil)
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		if format != cobra.FormatBinary || set.Size() != 4 {
			t.Fatalf("%s: read back %q with %d monomials, want binary with 4", in, format, set.Size())
		}
	}
}

// TestCompressBadFormatLeavesOutAlone: an unknown -out-format is refused
// before the input is read and before -out is created or truncated, and the
// message names the formats there are ("stream" was one until v3 became
// the binary format).
func TestCompressBadFormatLeavesOutAlone(t *testing.T) {
	prov, tree := writeFixtures(t)
	out := filepath.Join(t.TempDir(), "existing.txt")
	const precious = "do not truncate me\n"
	for _, format := range []cobra.Format{"bogus", "stream"} {
		if err := os.WriteFile(out, []byte(precious), 0o644); err != nil {
			t.Fatal(err)
		}
		err := run(prov, tree, 4, "dp", out, format)
		if err == nil || !strings.Contains(err.Error(), "binary") {
			t.Fatalf("-out-format %s: %v, want an error naming binary", format, err)
		}
		if err := run("/no/such/input", tree, 4, "dp", out, format); err == nil || !strings.Contains(err.Error(), "binary") {
			t.Fatalf("-out-format %s was not checked before the input was opened: %v", format, err)
		}
		if got, _ := os.ReadFile(out); string(got) != precious {
			t.Fatalf("-out-format %s: existing -out file now holds %q", format, got)
		}
	}
}

// TestCompressReportsCloseError: /dev/full accepts the open and fails the
// write; whichever of Write and Close reports it, run must.
func TestCompressReportsCloseError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	prov, tree := writeFixtures(t)
	if err := run(prov, tree, 4, "dp", "/dev/full", ""); err == nil {
		t.Fatal("writing to a full device reported success")
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
