package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestBenchQuickSubset(t *testing.T) {
	// E1/E2 are cheap and deterministic; this exercises the full wiring.
	var out bytes.Buffer
	if err := run(&out, "quick", "E1,E2", 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "E1 — ") || !strings.Contains(out.String(), "E2 — ") {
		t.Fatalf("tables missing:\n%s", out.String())
	}
	if err := run(io.Discard, "quick", "E2", 2); err != nil {
		t.Fatal(err)
	}
}

func TestBenchErrors(t *testing.T) {
	if err := run(io.Discard, "nope", "", 1); err == nil {
		t.Fatal("unknown scale should fail")
	}
	if err := run(io.Discard, "quick", "E99", 1); err == nil {
		t.Fatal("unknown experiment id should fail")
	}
}

// TestBenchUnknownIDRunsNothing: one unknown id among known ones fails the
// request before any experiment runs, and names only the unknown id.
func TestBenchUnknownIDRunsNothing(t *testing.T) {
	var out bytes.Buffer
	err := run(&out, "quick", "E1,E99", 1)
	if err == nil {
		t.Fatal("a mixed known/unknown list should fail")
	}
	if !strings.Contains(err.Error(), `"E99"`) || strings.Contains(err.Error(), `"E1"`) {
		t.Fatalf("error should name E99 and only E99: %v", err)
	}
	if out.Len() != 0 {
		t.Fatalf("an experiment ran before the ids were validated:\n%s", out.String())
	}
}

// TestBenchRetiredIDNamesReplacement: a deleted experiment's id fails with
// the workload that measures it now.
func TestBenchRetiredIDNamesReplacement(t *testing.T) {
	err := run(io.Discard, "quick", "E14", 1)
	if err == nil || !strings.Contains(err.Error(), "store_outofcore") {
		t.Fatalf("-only E14: err = %v, want one naming store_outofcore", err)
	}
}
