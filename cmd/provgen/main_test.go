package main

import (
	"os"
	"path/filepath"
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
