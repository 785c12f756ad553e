package polynomial

import (
	"context"
	"fmt"
)

// ContextSource wraps a SetSource so that streaming passes observe a
// context: ForEachShard checks ctx before every shard and stops with
// ctx.Err() once the context is done. Because every pipeline stage —
// signature indexing, cut application, batch valuation, serialization —
// pulls its input through ForEachShard, wrapping the input source cancels
// an in-flight solve at the next shard boundary, and the per-call worker
// pools (which always drain before returning) unwind with it instead of
// leaking.
//
// Cancellation granularity is one shard: an in-memory Set presents itself
// as a single shard, so only multi-shard (out-of-core) sources cancel
// mid-pass. Stages that dispatch on the concrete source representation
// must dispatch on Unwrap(src) so wrapping never changes which algorithm
// variant runs (see core.reduceSource) — results are therefore identical
// with and without a wrapper; only early termination differs.
type ContextSource struct {
	ctx context.Context
	src SetSource
}

// WithContext returns src observing ctx. A context that can never be
// canceled (ctx.Done() == nil, e.g. context.Background()) returns src
// unchanged, so the hot path pays nothing and representation-specific
// optimizations keyed on the concrete type keep applying directly.
func WithContext(ctx context.Context, src SetSource) SetSource {
	if ctx == nil || ctx.Done() == nil {
		return src
	}
	return &ContextSource{ctx: ctx, src: src}
}

// Unwrap peels any ContextSource layers off src, returning the underlying
// representation (a *Set, *ShardedSet, or other SetSource).
func Unwrap(src SetSource) SetSource {
	for {
		c, ok := src.(*ContextSource)
		if !ok {
			return src
		}
		src = c.src
	}
}

// Namespace returns the shared variable namespace.
func (c *ContextSource) Namespace() *Names { return c.src.Namespace() }

// Len returns the total number of polynomials.
func (c *ContextSource) Len() int { return c.src.Len() }

// Size returns the total number of monomials.
func (c *ContextSource) Size() int { return c.src.Size() }

// UsedVars returns the distinct variables appearing anywhere in the source.
func (c *ContextSource) UsedVars() []Var { return c.src.UsedVars() }

// ResidentMonomials returns the monomials currently held in memory.
func (c *ContextSource) ResidentMonomials() int { return c.src.ResidentMonomials() }

// PeakResidentMonomials returns the resident high-water mark.
func (c *ContextSource) PeakResidentMonomials() int { return c.src.PeakResidentMonomials() }

// ForEachShard iterates the underlying source, checking the context before
// every shard; once the context is done the pass stops with ctx.Err().
func (c *ContextSource) ForEachShard(fn func(i, firstPoly int, s *Set) error) error {
	return c.src.ForEachShard(func(i, firstPoly int, s *Set) error {
		if err := c.ctx.Err(); err != nil {
			return err
		}
		return fn(i, firstPoly, s)
	})
}

// ForEachShardParallel forwards a parallel pass to the underlying source
// with the same per-shard context check as ForEachShard; the check runs in
// the sequential consume step, so cancellation stops delivery at the next
// shard boundary and the decode pool drains before the pass returns. A
// source without parallel support degrades to the sequential pass.
func (c *ContextSource) ForEachShardParallel(workers int, fn func(i, firstPoly int, s *Set) error) error {
	checked := func(i, firstPoly int, s *Set) error {
		if err := c.ctx.Err(); err != nil {
			return err
		}
		return fn(i, firstPoly, s)
	}
	if ps, ok := c.src.(ShardParallelSource); ok && workers > 1 {
		return ps.ForEachShardParallel(workers, checked)
	}
	return c.src.ForEachShard(checked)
}

// ForEachPackedShard forwards a packed pass to the underlying source with
// the same per-shard context check as ForEachShard. Callers reach it
// through PackedShards, which has checked that the source offers one.
func (c *ContextSource) ForEachPackedShard(fn func(i, firstPoly int, ps *PackedSet) error) error {
	src, ok := c.src.(PackedShardSource)
	if !ok {
		return fmt.Errorf("polynomial: %T hands out no packed shards", c.src)
	}
	return src.ForEachPackedShard(func(i, firstPoly int, ps *PackedSet) error {
		if err := c.ctx.Err(); err != nil {
			return err
		}
		return fn(i, firstPoly, ps)
	})
}

// ConcurrentPasses forwards the underlying source's answer: wrapping a
// source in a context never changes which passes may run concurrently.
func (c *ContextSource) ConcurrentPasses() bool {
	ix, ok := c.src.(IndexedSource)
	return ok && ix.ConcurrentPasses()
}

var (
	_ SetSource     = (*ContextSource)(nil)
	_ IndexedSource = (*ContextSource)(nil)
)
