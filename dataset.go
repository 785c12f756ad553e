package cobra

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/core"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/provenance"
	"github.com/cobra-prov/cobra/internal/valuation"
)

// Dataset is the session handle at the center of the API: provenance
// captured (or opened) ONCE, compressed and indexed ONCE, then queried many
// times — the amortization COBRA's hypothetical reasoning is built on. A
// Dataset is named, immutable, and safe for concurrent use: any number of
// goroutines may call Compress, Apply, EvalBatch, Frontier, ForestFrontier
// and Sweep on the same handle, and expensive state (the tradeoff curves,
// per-bound compressions, the compiled valuation program) is computed once
// and shared. Every answer is bit-identical, for every worker count and
// source representation, to the algorithm of the internal packages run
// once over the materialized set with one worker: the DP, frontier, sweep,
// cut application and compiled batch evaluation (TestDatasetMatchesOneShotCalls
// checks each).
//
// The backing store is chosen by Options.MaxResidentMonomials at
// capture/open time (see OpenDataset for the rule): an in-memory Set, or a
// spill-to-disk ShardedSet whose resident footprint stays within the
// budget. A v3 file opened as a polyio.IndexedSet is decoded once, at
// open, into the dataset's own ShardedSet under that budget, so no later
// call decodes it again. A dataset derived by Apply in memory holds a
// PackedSet, the slabs its EvalBatch Program reads in place, and nothing
// else. A ShardedSet-backed dataset can additionally be Evicted: every
// shard still in memory is spilled, so the idle dataset holds no monomial,
// and it keeps answering identically, one loaded shard at a time.
//
// Methods take a context: a canceled context stops an in-flight solve at
// the next shard boundary (and between evaluation chunks), so a
// disconnected client does not keep a worker pool busy. Cancellation is
// never memoized — a later call with a live context recomputes.
//
// Results returned from a Dataset (curves, Results, cuts) are shared with
// other callers; treat them as read-only.
type Dataset struct {
	st      *datasetState
	workers int
}

// datasetState is the shared, reference-counted-by-GC state behind every
// WithWorkers view of a dataset.
type datasetState struct {
	name  string
	trees Forest
	opts  Options
	names *Names

	// Immutable input statistics, cached at open so they survive eviction.
	size     int
	npolys   int
	usedVars []Var

	// mu guards the source's lifecycle: solves hold the read lock for
	// their whole pass (concurrent solves are safe — in-memory reads are
	// pure, sharded passes serialize inside ShardedSet), while Evict and
	// Close take the write lock.
	mu        sync.RWMutex
	src       SetSource // guarded by mu; nil once closed
	closed    bool      // guarded by mu
	evicted   bool      // guarded by mu; set once by Evict, never cleared
	outOfCore bool      // set at open, immutable afterwards
	origin    io.Closer // set at open, immutable afterwards: the source src was built from, if it holds resources; closed with it

	// memoMu guards the memoized derived state. Computations run outside
	// the lock (a busy/wait flight per memo), so a slow frontier never
	// blocks an EvalBatch.
	memoMu   sync.Mutex
	frontier memo[[]FrontierPoint]       // guarded by memoMu
	forest   memo[[]ForestFrontierPoint] // guarded by memoMu
	prog     memo[*Program]              // guarded by memoMu
	compress map[int]*memo[*Result]      // guarded by memoMu
}

// memo is a single-flight memo cell: the first caller computes, concurrent
// callers wait (or bail with their context), and everyone afterwards gets
// the stored value. Context cancellations are returned but never stored.
type memo[T any] struct {
	done bool
	val  T
	err  error
	busy bool
	wait chan struct{}
}

// runMemoized resolves m under mu, running compute at most once
// concurrently and storing its result unless it is the caller's own
// context cancellation.
func runMemoized[T any](mu *sync.Mutex, m *memo[T], ctx context.Context, compute func() (T, error)) (T, error) {
	mu.Lock()
	for {
		if m.done {
			v, err := m.val, m.err
			mu.Unlock()
			return v, err
		}
		if !m.busy {
			break
		}
		wait := m.wait
		mu.Unlock()
		select {
		case <-wait:
		case <-ctx.Done():
			var zero T
			return zero, ctx.Err()
		}
		mu.Lock()
	}
	m.busy = true
	m.wait = make(chan struct{})
	mu.Unlock()

	v, err := compute()

	mu.Lock()
	m.busy = false
	close(m.wait)
	if err == nil || !isCtxErr(err) {
		m.done, m.val, m.err = true, v, err
	}
	mu.Unlock()
	return v, err
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// OpenDataset wraps an existing source — an in-memory Set, a ShardedSet
// or an indexed v3 file (polyio.IndexedSet) — as a named Dataset over the
// given abstraction forest. The Dataset takes ownership of the source: do
// not mutate it afterwards, and release it through Dataset.Close. trees
// may be empty if only EvalBatch is needed; the compression and frontier
// methods then fail.
//
// The budget rule: a ShardedSet is kept as it is, under its own budget.
// Any other source becomes the dataset's own ShardedSet under
// opts.MaxResidentMonomials, in one pass at open, when that budget is set
// — the dataset is then OutOfCore and can be evicted — and is kept as it
// is when it is not. An indexed file is always decoded once, here: every
// shard is read, checked and decoded in one pass and kept as it decoded,
// spilling past the budget if one is set, so every later call reads that
// set and never the file. The pass cannot be canceled. On an error — a
// spill that cannot be written, or a damaged shard, which is a typed
// polyio error — nothing is left in opts.SpillDir and the source is not
// closed: it is still the caller's.
func OpenDataset(name string, src SetSource, trees Forest, opts Options) (*Dataset, error) {
	if src == nil {
		return nil, errors.New("cobra: OpenDataset needs a source")
	}
	base := polynomial.Unwrap(src)
	ix, indexed := base.(polynomial.IndexedSource)
	indexed = indexed && ix.ConcurrentPasses()
	_, ooc := base.(*ShardedSet)
	st := &datasetState{name: name, trees: trees, opts: opts, src: src, outOfCore: ooc}
	if indexed || !ooc && opts.MaxResidentMonomials > 0 {
		b := polynomial.NewShardBuilder(src.Namespace(), opts.shardOptions())
		defer b.Discard() // release partial spill files on any error path
		var err error
		if indexed {
			err = ix.ForEachPackedShard(func(_, _ int, ps *polynomial.PackedSet) error { return b.AddPacked(ps) })
		} else {
			err = polynomial.Copy(src, b)
		}
		var ss *ShardedSet
		if err == nil {
			ss, err = b.Finish()
		}
		if err != nil {
			return nil, fmt.Errorf("cobra: opening dataset %q: %w", name, err)
		}
		st.src, st.outOfCore = ss, true
		st.origin, _ = src.(io.Closer) // a *Set is not one, and is not kept
	}
	st.names, st.size, st.npolys, st.usedVars = st.src.Namespace(), st.src.Size(), st.src.Len(), st.src.UsedVars()
	return &Dataset{st: st, workers: opts.Workers}, nil
}

// CaptureDataset runs a query over the instrumented catalog and captures
// its provenance polynomials straight into a named Dataset — in memory, or
// streamed into a budgeted ShardedSet when opts.MaxResidentMonomials is
// set, in which case the full provenance never materializes. names must be
// the namespace the catalog was instrumented under. The captured
// polynomials are bit-identical to Capture's for every worker count.
func CaptureDataset(ctx context.Context, name, query string, cat Catalog, names *Names, valueCol string, trees Forest, opts Options) (*Dataset, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opts.MaxResidentMonomials > 0 {
		b := polynomial.NewShardBuilder(names, opts.shardOptions())
		defer b.Discard() // release partial spill files on any error path
		var sink polynomial.SetSink = b
		if ctx.Done() != nil {
			sink = ctxSink{ctx: ctx, sink: b}
		}
		if err := provenance.CaptureStream(query, cat, valueCol, sink, opts.Workers); err != nil {
			return nil, err
		}
		ss, err := b.Finish()
		if err != nil {
			return nil, err
		}
		return OpenDataset(name, ss, trees, opts)
	}
	set, err := provenance.CaptureN(query, cat, names, valueCol, opts.Workers)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return OpenDataset(name, set, trees, opts)
}

// ctxSink threads a context through a push-based capture: each appended
// polynomial first checks the context, so a canceled capture job stops
// within one row.
type ctxSink struct {
	ctx  context.Context
	sink polynomial.SetSink
}

func (c ctxSink) Add(key string, p Polynomial) error {
	if err := c.ctx.Err(); err != nil {
		return err
	}
	return c.sink.Add(key, p)
}

// Name returns the dataset's name.
func (d *Dataset) Name() string { return d.st.name }

// Names returns the variable namespace the dataset's polynomials, trees
// and assignments share.
func (d *Dataset) Names() *Names { return d.st.names }

// Trees returns the abstraction forest the dataset compresses under.
func (d *Dataset) Trees() Forest { return d.st.trees }

// Size returns the total number of monomials — the provenance size measure
// optimized by COBRA. Cached at open time, so it never starts a pass.
func (d *Dataset) Size() int { return d.st.size }

// Len returns the number of polynomials (query-output groups).
func (d *Dataset) Len() int { return d.st.npolys }

// UsedVars returns the distinct variables appearing in the dataset,
// ascending.
func (d *Dataset) UsedVars() []Var { return append([]Var(nil), d.st.usedVars...) }

// Workers returns the worker budget this handle solves with.
func (d *Dataset) Workers() int { return d.workers }

// OutOfCore reports whether the dataset is backed by a spill-to-disk
// ShardedSet — its own, when it was opened over an indexed file — (true)
// or held in memory (false).
func (d *Dataset) OutOfCore() bool { return d.st.outOfCore }

// Resident reports whether the dataset may still hold monomials between
// calls: true until Evict succeeds (or Close), false from then on —
// eviction is one-way, using an evicted dataset does not bring it back.
func (d *Dataset) Resident() bool {
	d.st.mu.RLock()
	defer d.st.mu.RUnlock()
	return !d.st.evicted && !d.st.closed
}

// WithWorkers returns a view of the same dataset whose solves use up to n
// goroutines — request-scoped worker budgeting: the underlying state,
// memos and source are shared, and since every computation is
// bit-identical for every worker count, views with different budgets share
// their memoized results soundly.
func (d *Dataset) WithWorkers(n int) *Dataset {
	return &Dataset{st: d.st, workers: n}
}

// acquire pins the backing source for a read pass. The returned release
// function must be called when the pass is done.
func (st *datasetState) acquire() (SetSource, func(), error) {
	st.mu.RLock()
	if st.closed {
		st.mu.RUnlock()
		return nil, nil, fmt.Errorf("cobra: dataset %q is closed", st.name)
	}
	return st.src, st.mu.RUnlock, nil
}

// Evict spills every shard of a ShardedSet-backed dataset that is still in
// memory and drops the buffers its passes keep, so an idle dataset costs no
// monomial of memory. That includes a dataset opened over an indexed v3
// file, whose ShardedSet was decoded from it at open: its shards spill to
// its own spill file like any other, and the v3 file is never touched.
// Nothing is converted and nothing is written outside the set's own spill
// directory: the dataset goes on answering from its spill file, bit for
// bit as before, its passes still one at a time, and memoized curves and
// compressions are untouched. Eviction is one-way. Evict reports whether
// this call evicted the dataset: true once per ShardedSet-backed dataset
// (also when the budget had already spilled every shard), false for an
// in-memory, an already evicted or a closed dataset. On an error the
// dataset stays resident and usable. Evict waits for in-flight solves to
// finish.
func (d *Dataset) Evict() (bool, error) {
	st := d.st
	st.mu.Lock()
	defer st.mu.Unlock()
	ss, ok := polynomial.Unwrap(st.src).(*ShardedSet)
	if st.closed || st.evicted || !ok {
		return false, nil
	}
	if err := ss.SpillAll(); err != nil {
		return false, fmt.Errorf("cobra: evicting dataset %q: %w", st.name, err)
	}
	st.evicted = true
	return true, nil
}

// Close releases the dataset: the backing source, spill files included,
// and the source it was built from when that holds resources (an indexed
// file). Close waits for in-flight
// solves to finish; the dataset must not be used afterwards.
func (d *Dataset) Close() error {
	st := d.st
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	st.closed = true
	var err error
	for _, c := range []any{st.src, st.origin} {
		if c, ok := c.(io.Closer); ok {
			err = errors.Join(err, c.Close())
		}
	}
	st.src = nil
	return err
}

// Compress finds the optimal abstraction under the bound, memoized per
// bound: the first call per bound pays the solve, repeats are a lookup. It
// is exact for one tree (the DP) and for a partitioned forest, where every
// monomial holds leaves of at most one tree (the composed forest curve, so
// the answer is Sweep's at that bound); for a coupled forest it runs
// coordinate descent, a heuristic. The Result is bit-identical for every
// worker count and source representation.
func (d *Dataset) Compress(ctx context.Context, bound int) (*Result, error) {
	st := d.st
	st.memoMu.Lock()
	if st.compress == nil {
		st.compress = make(map[int]*memo[*Result])
	}
	m := st.compress[bound]
	if m == nil {
		m = &memo[*Result]{}
		st.compress[bound] = m
	}
	st.memoMu.Unlock()
	return runMemoized(&st.memoMu, m, ctx, func() (*Result, error) {
		src, release, err := st.acquire()
		if err != nil {
			return nil, err
		}
		defer release()
		return core.CompressSource(polynomial.WithContext(ctx, src), st.trees, bound, d.workers)
	})
}

// Apply applies cuts, producing a derived Dataset of the same
// representation: an out-of-core dataset streams into a new ShardedSet
// under the same residency budget, and an in-memory one is applied into a
// PackedSet — the slabs the derived dataset's Program evaluates in place,
// so they are its only copy of the compressed provenance. The derived
// dataset shares the namespace and forest and is independently closable.
func (d *Dataset) Apply(ctx context.Context, cuts ...Cut) (*Dataset, error) {
	st := d.st
	src, release, err := st.acquire()
	if err != nil {
		return nil, err
	}
	defer release()
	name := st.name + "/applied"
	src = polynomial.WithContext(ctx, src)
	if !st.outOfCore {
		out := polynomial.NewPackedSet(st.names)
		if err := abstraction.ApplySource(src, out, d.workers, cuts...); err != nil {
			return nil, err
		}
		return OpenDataset(name, out, st.trees, st.opts)
	}
	// Stream into a fresh ShardedSet under the source's options so the
	// derived dataset stays out-of-core.
	b := polynomial.NewShardBuilder(st.names, polynomial.Unwrap(src).(*ShardedSet).Options())
	defer b.Discard() // release partial spill files on any error path
	if err := abstraction.ApplySource(src, b, d.workers, cuts...); err != nil {
		return nil, err
	}
	ss, err := b.Finish()
	if err != nil {
		return nil, err
	}
	return OpenDataset(name, ss, st.trees, st.opts)
}

// evalChunkRows is how many scenario rows evaluate between context checks
// on the in-memory EvalBatch path.
const evalChunkRows = 1024

// EvalBatch evaluates every polynomial of the dataset under many scenario
// assignments — one result row per assignment, in assignment order. For an
// in-memory dataset one Program is built on first use and reused by every
// subsequent call (this is the hot path a serving deployment pays per
// request): it evaluates a PackedSet source — a derived dataset's — in
// place, and packs any other source once, failing with PackSet's error if
// the set overflows the packed layout. Out-of-core datasets evaluate one
// shard at a time within the residency budget, reading each shard's slabs
// as they were spilled — no polynomial is rebuilt and nothing is copied.
// Rows are bit-identical to Compile(set).EvalBatchN on the materialized
// set for every worker count.
func (d *Dataset) EvalBatch(ctx context.Context, assignments []*Assignment) ([][]float64, error) {
	st := d.st
	src, release, err := st.acquire()
	if err != nil {
		return nil, err
	}
	if !st.outOfCore {
		//cobra:lockguard runMemoized locks memoMu itself; only the cell's address is taken here
		prog, err := runMemoized(&st.memoMu, &st.prog, ctx, func() (*Program, error) {
			ps, ok := polynomial.Unwrap(src).(*polynomial.PackedSet)
			if !ok {
				ps = polynomial.NewPackedSet(st.names)
				ps.Grow(st.npolys, st.size, 0)
				if err := polynomial.Copy(polynomial.WithContext(ctx, src), ps); err != nil {
					return nil, err
				}
			}
			return valuation.NewProgram(ps), nil
		})
		// The program's slabs never change (in-memory datasets never
		// evict, and Close only drops the source), so release before
		// evaluating: concurrent EvalBatch calls proceed fully in parallel.
		release()
		if err != nil {
			return nil, err
		}
		return evalBatchProg(ctx, prog, assignments, d.workers)
	}
	defer release()
	return valuation.EvalBatchSource(polynomial.WithContext(ctx, src), assignments, d.workers)
}

// evalBatchProg evaluates assignments in slices of evalChunkRows, checking
// the context between slices. Each row evaluates independently, so slicing
// never changes the rows.
func evalBatchProg(ctx context.Context, prog *Program, assignments []*Assignment, workers int) ([][]float64, error) {
	if ctx.Done() == nil {
		return prog.EvalBatchN(assignments, nil, workers), nil
	}
	out := make([][]float64, 0, len(assignments))
	for lo := 0; lo < len(assignments); lo += evalChunkRows {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		hi := min(lo+evalChunkRows, len(assignments))
		out = append(out, prog.EvalBatchN(assignments[lo:hi], nil, workers)...)
	}
	return out, nil
}

// Frontier returns the dataset's complete expressiveness/size tradeoff
// curve — for every feasible number of meta-variables, the minimal
// compressed size and a cut attaining it — computed by ONE DP run on first
// use and memoized; Sweep and repeated Frontier calls answer from the
// cache. The dataset must have exactly one abstraction tree (use
// ForestFrontier otherwise).
func (d *Dataset) Frontier(ctx context.Context) ([]FrontierPoint, error) {
	st := d.st
	if len(st.trees) != 1 {
		return nil, fmt.Errorf("cobra: Frontier needs exactly one abstraction tree (dataset %q has %d); use ForestFrontier", st.name, len(st.trees))
	}
	//cobra:lockguard runMemoized locks memoMu itself; only the cell's address is taken here
	return runMemoized(&st.memoMu, &st.frontier, ctx, func() ([]FrontierPoint, error) {
		src, release, err := st.acquire()
		if err != nil {
			return nil, err
		}
		defer release()
		return core.FrontierSourceN(polynomial.WithContext(ctx, src), st.trees[0], d.workers)
	})
}

// ForestFrontier returns the forest-level tradeoff curve (one DP run per
// tree composed by a knapsack DP over the trees), memoized like Frontier.
// It requires each monomial to touch at most one tree of the forest
// (CrossTreeError otherwise).
func (d *Dataset) ForestFrontier(ctx context.Context) ([]ForestFrontierPoint, error) {
	st := d.st
	//cobra:lockguard runMemoized locks memoMu itself; only the cell's address is taken here
	return runMemoized(&st.memoMu, &st.forest, ctx, func() ([]ForestFrontierPoint, error) {
		src, release, err := st.acquire()
		if err != nil {
			return nil, err
		}
		defer release()
		return core.FrontierForestSource(polynomial.WithContext(ctx, src), st.trees, d.workers)
	})
}

// Sweep answers an arbitrary batch of bounds from the memoized tradeoff
// curve: the first sweep (or Frontier call) pays the DP once, every bound
// ever after is a lookup. Answers are returned in bounds order. For a
// single tree each answer is bit-identical — cut, sizes, statistics,
// error — to Compress at that bound; for a forest the answers are exact
// optima over partitioned instances (CrossTreeError otherwise).
func (d *Dataset) Sweep(ctx context.Context, bounds []int) ([]SweepAnswer, error) {
	st := d.st
	if len(st.trees) == 0 {
		return nil, errors.New("core: no abstraction trees given")
	}
	var (
		single []FrontierPoint
		forest []ForestFrontierPoint
		err    error
	)
	if len(st.trees) == 1 {
		single, err = d.Frontier(ctx)
	} else {
		forest, err = d.ForestFrontier(ctx)
	}
	if err != nil {
		return nil, err
	}
	return core.AnswersFromCurves(len(st.trees), single, forest, st.size, st.usedVars, bounds), nil
}
