package engine

import (
	"errors"
	"strings"
	"testing"

	"github.com/cobra-prov/cobra/internal/relation"
)

// trackIter instruments an iterator with Open/Close counting and error
// injection, to assert the engine's lifecycle invariant: every successful
// Open is paired with exactly one Close, on success and on every error
// path, and an Open that failed is never Closed.
type trackIter struct {
	inner  Iterator
	opens  int
	closes int
	nexts  int

	openErr    error // returned by Open before the inner iterator opens
	failNextAt int   // > 0: the failNextAt-th Next call fails
	nextErr    error
	closeErr   error // returned by Close after the inner iterator closed
}

var errInjected = errors.New("injected failure")

func track(inner Iterator) *trackIter { return &trackIter{inner: inner} }

func (t *trackIter) Schema() *relation.Schema { return t.inner.Schema() }

func (t *trackIter) Open() error {
	if t.openErr != nil {
		return t.openErr
	}
	if err := t.inner.Open(); err != nil {
		return err
	}
	t.opens++
	return nil
}

func (t *trackIter) Close() error {
	t.closes++
	if err := t.inner.Close(); err != nil {
		return err
	}
	return t.closeErr
}

func (t *trackIter) Next() (relation.Tuple, bool, error) {
	t.nexts++
	if t.failNextAt > 0 && t.nexts >= t.failNextAt {
		if t.nextErr != nil {
			return relation.Tuple{}, false, t.nextErr
		}
		return relation.Tuple{}, false, errInjected
	}
	return t.inner.Next()
}

// assertBalanced checks the pairing invariant on each tracker.
func assertBalanced(t *testing.T, trackers ...*trackIter) {
	t.Helper()
	for i, tr := range trackers {
		if tr.opens != tr.closes {
			t.Fatalf("tracker %d: %d opens but %d closes", i, tr.opens, tr.closes)
		}
		if tr.closes > 1 {
			t.Fatalf("tracker %d: closed %d times", i, tr.closes)
		}
	}
}

// lifecyclePlans builds every operator over freshly tracked children; each
// entry returns the plan root plus the trackers to audit.
func lifecyclePlans(t *testing.T) map[string]func(l, r *trackIter) Iterator {
	t.Helper()
	return map[string]func(l, r *trackIter) Iterator{
		"filter": func(l, _ *trackIter) Iterator {
			return NewFilter(l, &Cmp{Op: OpGt, L: &ColRef{Idx: 2, Name: "val"}, R: &Lit{relation.Float(15)}})
		},
		"project": func(l, _ *trackIter) Iterator {
			return NewProject(l, []Projection{{Name: "v", Expr: &ColRef{Idx: 2, Name: "val"}}})
		},
		"limit": func(l, _ *trackIter) Iterator { return NewLimit(l, 2) },
		"sort": func(l, _ *trackIter) Iterator {
			return NewSort(l, []SortKey{{Expr: &ColRef{Idx: 2, Name: "val"}, Desc: true}})
		},
		"groupby": func(l, _ *trackIter) Iterator {
			gb, err := NewGroupBy(l, []Expr{&ColRef{Idx: 1, Name: "grp"}}, []string{"grp"},
				[]AggSpec{{Kind: AggSum, Arg: &ColRef{Idx: 2, Name: "val"}, Name: "s"}})
			if err != nil {
				t.Fatal(err)
			}
			return gb
		},
		"hashjoin": func(l, r *trackIter) Iterator {
			hj, err := NewHashJoin(l, r, []int{0}, []int{0}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return hj
		},
		"nestedloop": func(l, r *trackIter) Iterator { return NewNestedLoopJoin(l, r) },
	}
}

func isBinary(name string) bool {
	return name == "hashjoin" || name == "nestedloop"
}

func TestLifecycleHappyPath(t *testing.T) {
	rel := testRel(t)
	for name, build := range lifecyclePlans(t) {
		l, r := track(NewScan(rel, "")), track(NewScan(rel, "x"))
		out, err := Collect("out", build(l, r))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out == nil {
			t.Fatalf("%s: nil relation", name)
		}
		assertBalanced(t, l, r)
		if l.opens != 1 {
			t.Fatalf("%s: left opened %d times", name, l.opens)
		}
		if isBinary(name) && r.opens != 1 {
			t.Fatalf("%s: right opened %d times", name, r.opens)
		}
	}
}

// TestLifecycleLeftNextError injects a mid-stream failure in the left
// (probe/outer/first) child: every opened iterator must still close once.
func TestLifecycleLeftNextError(t *testing.T) {
	rel := testRel(t)
	for name, build := range lifecyclePlans(t) {
		l, r := track(NewScan(rel, "")), track(NewScan(rel, "x"))
		l.failNextAt = 2
		_, err := Collect("out", build(l, r))
		if !errors.Is(err, errInjected) {
			t.Fatalf("%s: err = %v, want injected", name, err)
		}
		assertBalanced(t, l, r)
	}
}

// TestLifecycleRightOpenError fails the right child's Open: the
// already-opened left child must be closed, and the unopened right child
// must not be.
func TestLifecycleRightOpenError(t *testing.T) {
	rel := testRel(t)
	for _, name := range []string{"hashjoin", "nestedloop"} {
		build := lifecyclePlans(t)[name]
		l, r := track(NewScan(rel, "")), track(NewScan(rel, "x"))
		r.openErr = errInjected
		_, err := Collect("out", build(l, r))
		if !errors.Is(err, errInjected) {
			t.Fatalf("%s: err = %v, want injected", name, err)
		}
		assertBalanced(t, l, r)
		if l.opens != 1 || l.closes != 1 {
			t.Fatalf("%s: left child leaked (opens %d, closes %d)", name, l.opens, l.closes)
		}
		if r.opens != 0 || r.closes != 0 {
			t.Fatalf("%s: unopened right child touched (opens %d, closes %d)", name, r.opens, r.closes)
		}
	}
}

// TestLifecycleRightNextError fails the right child mid-drain (the build /
// materialization phase of joins): both children must close exactly once.
func TestLifecycleRightNextError(t *testing.T) {
	rel := testRel(t)
	for _, name := range []string{"hashjoin", "nestedloop"} {
		build := lifecyclePlans(t)[name]
		l, r := track(NewScan(rel, "")), track(NewScan(rel, "x"))
		r.failNextAt = 2
		_, err := Collect("out", build(l, r))
		if !errors.Is(err, errInjected) {
			t.Fatalf("%s: err = %v, want injected", name, err)
		}
		assertBalanced(t, l, r)
	}
}

// TestCollectReportsCloseError: a Close failure surfaces even when the
// drain succeeded, and the Next error stays primary when both fail.
func TestCollectReportsCloseError(t *testing.T) {
	rel := testRel(t)

	tr := track(NewScan(rel, ""))
	tr.closeErr = errInjected
	out, err := Collect("out", tr)
	if !errors.Is(err, errInjected) {
		t.Fatalf("close error dropped: err = %v", err)
	}
	if out != nil {
		t.Fatal("relation returned alongside a close error")
	}

	tr = track(NewScan(rel, ""))
	tr.failNextAt = 2
	tr.nextErr = errors.New("next failed")
	tr.closeErr = errors.New("close failed")
	_, err = Collect("out", tr)
	if err == nil || !strings.Contains(err.Error(), "next failed") {
		t.Fatalf("next error not primary: %v", err)
	}
	if tr.closes != 1 {
		t.Fatalf("closes = %d", tr.closes)
	}
}
