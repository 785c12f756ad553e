package main

import (
	"strings"
	"testing"

	cobra "github.com/cobra-prov/cobra"
	"github.com/cobra-prov/cobra/internal/core"
)

// newTestSession builds a Figure-1 session.
func newTestSession(t *testing.T) *session {
	t.Helper()
	names := cobra.NewNames()
	set, _, err := loadDataset("figure1", 0, names)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := loadTree("", names)
	if err != nil {
		t.Fatal(err)
	}
	return newSession(names, set, tree)
}

// script runs the REPL over the given commands and returns the transcript.
func script(t *testing.T, s *session, commands ...string) string {
	t.Helper()
	var out strings.Builder
	in := strings.NewReader(strings.Join(commands, "\n") + "\n")
	if err := repl(s, in, &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestReplWalkthrough(t *testing.T) {
	s := newTestSession(t)
	out := script(t, s,
		"help",
		"tree",
		"frontier",
		"bound 6",
		"set m3 0.8",
		"scenario",
		"show",
		"quit",
	)
	for _, want := range []string{
		"COBRA interactive — 2 polynomials, 14 monomials",
		"bound N",                // help text
		"Plans",                  // tree
		"k= 1  min size       4", // frontier
		"meta-variables",         // bound result
		"m3 := 0.8",              // set
		"m3 = 0.8",               // scenario
		"max relative deviation", // show
		"speedup",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("transcript missing %q:\n%s", want, out)
		}
	}
}

// TestReplSweepAndSliderFromOneCurve: a whole batch of bounds is answered
// from the session's cached frontier; the bound slider itself answers by
// lookup and still reports infeasibility exactly like per-bound
// compression did.
func TestReplSweep(t *testing.T) {
	s := newTestSession(t)
	out := script(t, s,
		"sweep 14 6 4 3",
		"sweep",
		"sweep abc",
		"bound 6",
		"quit",
	)
	for _, want := range []string{
		"bound      14 -> size      14, 11 meta-variables",
		"bound       6 -> size       6, 4 meta-variables",
		"bound       4 -> size       4, 1 meta-variables, cut {Plans}",
		"bound       3 -> infeasible (min achievable 4)",
		"usage: sweep N [N ...]",
		`bad bound "abc"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("transcript missing %q:\n%s", want, out)
		}
	}
	// The slider answer must match what the sweep reported for bound 6.
	if !strings.Contains(out, "6 monomials, 4 meta-variables") {
		t.Fatalf("bound lookup disagrees with sweep:\n%s", out)
	}
}

// TestReplBoundMatchesCompress pins the slider's lookup answers to
// per-bound compression across the whole feasible range.
func TestReplBoundMatchesCompress(t *testing.T) {
	s := newTestSession(t)
	for bound := 4; bound <= 15; bound++ {
		res, err := core.CompressSource(s.set, cobra.Forest{s.tree}, bound, 1)
		if err != nil {
			t.Fatalf("bound %d: %v", bound, err)
		}
		fr, err := s.curve()
		if err != nil {
			t.Fatal(err)
		}
		p, ok := cobra.BestForBound(fr, bound)
		if !ok {
			t.Fatalf("bound %d: curve has no point, compress found %+v", bound, res)
		}
		if p.MinSize != res.Size || p.NumMeta != res.NumMeta || !p.Cut.Equal(res.Cuts[0]) {
			t.Fatalf("bound %d: curve (%d, %d, %s) != compress (%d, %d, %s)",
				bound, p.NumMeta, p.MinSize, p.Cut, res.NumMeta, res.Size, res.Cuts[0])
		}
	}
}

func TestReplCutNavigation(t *testing.T) {
	s := newTestSession(t)
	out := script(t, s,
		"cut Business,Special,Standard",
		"refine Business",
		"coarsen Business",
		"cut",
		"quit",
	)
	if !strings.Contains(out, "cut {Standard, Special, Business}: 6 monomials") {
		t.Fatalf("explicit cut failed:\n%s", out)
	}
	if !strings.Contains(out, "SB") { // refined cut shows SB
		t.Fatalf("refine not visible:\n%s", out)
	}
	if !strings.Contains(out, "current cut: {Standard, Special, Business}") {
		t.Fatalf("final cut wrong:\n%s", out)
	}
}

func TestReplMetaOverride(t *testing.T) {
	s := newTestSession(t)
	out := script(t, s,
		"bound 6",
		"set Business 1.1",
		"scenario",
		"show",
		"unset Business",
		"scenario",
		"quit",
	)
	if !strings.Contains(out, "meta-variable Business := 1.1") {
		t.Fatalf("meta override not applied:\n%s", out)
	}
	if !strings.Contains(out, "Business = 1.1 (meta override)") {
		t.Fatalf("scenario listing wrong:\n%s", out)
	}
	if !strings.Contains(out, "unset Business") {
		t.Fatalf("unset failed:\n%s", out)
	}
}

func TestReplErrorsKeepLoopAlive(t *testing.T) {
	s := newTestSession(t)
	out := script(t, s,
		"bogus",
		"bound",
		"bound xyz",
		"bound 1",            // infeasible
		"cut Plans,Business", // not an antichain
		"refine",
		"refine nosuch",
		"refine p1", // leaf
		"coarsen Plans",
		"set ghost 1",
		"set m3 abc",
		"set",
		"unset",
		"quit",
	)
	for _, want := range []string{
		"unknown command",
		"usage: bound N",
		"bad bound",
		"not achievable",
		"error:",
		"no node named",
		"cannot refine leaf",
		"unknown variable",
		"bad value",
		"usage: set VAR VALUE",
		"usage: unset VAR",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("transcript missing %q:\n%s", want, out)
		}
	}
}

func TestReplEOFExitsCleanly(t *testing.T) {
	s := newTestSession(t)
	var out strings.Builder
	if err := repl(s, strings.NewReader("tree\n"), &out); err != nil {
		t.Fatal(err)
	}
}

func TestReplMetaOverrideResetOnCutChange(t *testing.T) {
	s := newTestSession(t)
	script(t, s,
		"bound 6",
		"set Business 1.5",
		"bound 14",
		"quit",
	)
	if s.metaOverride.Len() != 0 {
		t.Fatal("meta overrides must reset when the cut changes")
	}
}
