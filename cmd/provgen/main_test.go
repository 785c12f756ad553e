package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	cobra "github.com/cobra-prov/cobra"
)

func TestProvgenFormats(t *testing.T) {
	dir := t.TempDir()
	for _, format := range []string{"text", "json", "binary"} {
		out := filepath.Join(dir, "prov."+format)
		if err := run("figure1", 0, 0, "", format, out, ""); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		f, err := os.Open(out)
		if err != nil {
			t.Fatal(err)
		}
		set, got, err := cobra.ReadSet(f, nil)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if string(got) != format {
			t.Fatalf("wrote %s, read back as %s", format, got)
		}
		if set.Size() != 14 {
			t.Fatalf("%s: size = %d, want 14", format, set.Size())
		}
	}
}

func TestProvgenTelephonyAndTree(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "prov.txt")
	treeOut := filepath.Join(dir, "tree.json")
	if err := run("telephony", 3_000, 0, "", "text", out, treeOut); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(treeOut)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := cobra.TreeFromJSON(data, cobra.NewNames())
	if err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 18 {
		t.Fatalf("tree nodes = %d, want 18 (Figure 2)", tree.Len())
	}
}

func TestProvgenTPCH(t *testing.T) {
	dir := t.TempDir()
	for _, q := range []string{"Q1", "Q5", "Q6"} {
		out := filepath.Join(dir, q+".txt")
		if err := run("tpch", 0, 0.002, q, "text", out, ""); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
}

// TestProvgenBadFormatLeavesOutAlone: an unknown -format is refused before
// anything is generated and before -out is created or truncated.
func TestProvgenBadFormatLeavesOutAlone(t *testing.T) {
	out := filepath.Join(t.TempDir(), "existing.txt")
	const precious = "do not truncate me\n"
	for _, format := range []string{"bogus", "stream"} {
		if err := os.WriteFile(out, []byte(precious), 0o644); err != nil {
			t.Fatal(err)
		}
		err := run("figure1", 0, 0, "", format, out, "")
		if err == nil || !strings.Contains(err.Error(), "binary") {
			t.Fatalf("-format %s: %v, want an error naming binary", format, err)
		}
		if got, _ := os.ReadFile(out); string(got) != precious {
			t.Fatalf("-format %s: existing -out file now holds %q", format, got)
		}
	}
}

func TestProvgenErrors(t *testing.T) {
	if err := run("nope", 0, 0, "", "text", "-", ""); err == nil {
		t.Fatal("unknown dataset should fail")
	}
	if err := run("tpch", 0, 0.002, "Q99", "text", "-", ""); err == nil {
		t.Fatal("unknown query should fail")
	}
	if err := run("figure1", 0, 0, "", "nope", "-", ""); err == nil {
		t.Fatal("unknown format should fail")
	}
	if err := run("figure1", 0, 0, "", "text", "/no/such/dir/out.txt", ""); err == nil {
		t.Fatal("unwritable output should fail")
	}
}
