package polynomial

import (
	"context"
	"errors"
	"testing"
)

func ctxTestSet(t *testing.T) (*Names, *Set) {
	t.Helper()
	names := NewNames()
	s := NewSet(names)
	for _, k := range []string{"p1", "p2", "p3"} {
		v := names.Var(k + "_x")
		s.Add(k, Polynomial{Mons: []Monomial{{Coef: 2, Terms: []Term{{Var: v, Exp: 1}}}}})
	}
	return names, s
}

func TestWithContextBackgroundIsTransparent(t *testing.T) {
	_, s := ctxTestSet(t)
	if got := WithContext(context.Background(), s); got != SetSource(s) {
		t.Fatalf("WithContext(Background) wrapped the source: %T", got)
	}
	if got := WithContext(nil, s); got != SetSource(s) { //nolint:staticcheck // nil ctx tolerated by design
		t.Fatalf("WithContext(nil) wrapped the source: %T", got)
	}
}

func TestWithContextUnwrap(t *testing.T) {
	_, s := ctxTestSet(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := WithContext(ctx, s)
	if _, ok := w.(*ContextSource); !ok {
		t.Fatalf("cancellable ctx did not wrap: %T", w)
	}
	// Double wrapping unwraps all the way down.
	w2 := WithContext(ctx, w)
	if got := Unwrap(w2); got != SetSource(s) {
		t.Fatalf("Unwrap returned %T, want the original *Set", got)
	}
}

func TestContextSourceDelegatesMetadata(t *testing.T) {
	names, s := ctxTestSet(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := WithContext(ctx, s)
	if w.Namespace() != names {
		t.Error("Namespace not delegated")
	}
	if w.Len() != s.Len() || w.Size() != s.Size() {
		t.Errorf("Len/Size not delegated: %d/%d want %d/%d", w.Len(), w.Size(), s.Len(), s.Size())
	}
	if got, want := len(w.UsedVars()), len(s.UsedVars()); got != want {
		t.Errorf("UsedVars not delegated: %d vars, want %d", got, want)
	}
}

func TestContextSourceCancelStopsPass(t *testing.T) {
	names, s := ctxTestSet(t)
	ss, err := BuildSharded(s, ShardOptions{TargetMonomials: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if ss.NumShards() < 3 {
		t.Fatalf("want >= 3 shards, got %d", ss.NumShards())
	}
	_ = names

	ctx, cancel := context.WithCancel(context.Background())
	w := WithContext(ctx, ss)
	calls := 0
	err = w.ForEachShard(func(i, firstPoly int, sh *Set) error {
		calls++
		cancel() // the next shard boundary must observe the cancellation
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times after cancel, want 1", calls)
	}

	// A fresh pass over the same (unwrapped) set still works: cancellation
	// never corrupts the underlying source.
	total := 0
	if err := ss.ForEachShard(func(_, _ int, sh *Set) error { total += sh.Len(); return nil }); err != nil {
		t.Fatal(err)
	}
	if total != s.Len() {
		t.Fatalf("after cancel, full pass saw %d polys, want %d", total, s.Len())
	}
}

func TestShardedSetConcurrentMetadataDuringPass(t *testing.T) {
	_, s := ctxTestSet(t)
	ss, err := BuildSharded(s, ShardOptions{TargetMonomials: 1, MaxResidentMonomials: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = ss.UsedVars()
			_ = ss.NumVars()
			_ = ss.ResidentMonomials()
			_ = ss.PeakResidentMonomials()
			_ = ss.SpilledShards()
			_ = ss.SpillIO()
		}
	}()
	for i := 0; i < 20; i++ {
		if err := ss.ForEachShard(func(_, _ int, sh *Set) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	<-done
}
