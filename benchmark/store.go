package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	cobra "github.com/cobra-prov/cobra"
	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/core"
	"github.com/cobra-prov/cobra/internal/datagen/telephony"
	"github.com/cobra-prov/cobra/internal/polyio"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/valuation"
)

// tmpDir is where out-of-core state goes: inside the checkout, removed on
// exit. main sets it.
var tmpDir string

// spanSource wraps a source so the time its shards take to load or decode
// shows as a span of the storage layer, apart from what the consumer does
// with each shard. It changes no algorithm: the stages it is handed to
// never dispatch on the concrete source type.
type spanSource struct {
	polynomial.SetSource
	tr       *tracer
	parent   int
	layer    string // the layer that produces the shards
	consumer string // the layer that called ForEachShard
}

func (s *spanSource) ForEachShard(fn func(i, firstPoly int, shard *polynomial.Set) error) error {
	return s.each(s.SetSource.ForEachShard, fn)
}

// ForEachShardParallel keeps multi-worker passes on the source's parallel
// decode path; fn still runs on the calling goroutine, in shard order.
func (s *spanSource) ForEachShardParallel(workers int, fn func(i, firstPoly int, shard *polynomial.Set) error) error {
	ps, ok := s.SetSource.(polynomial.ShardParallelSource)
	if !ok {
		return s.ForEachShard(fn)
	}
	return s.each(func(fn func(i, firstPoly int, shard *polynomial.Set) error) error {
		return ps.ForEachShardParallel(workers, fn)
	}, fn)
}

func (s *spanSource) each(pass func(func(i, firstPoly int, shard *polynomial.Set) error) error, fn func(i, firstPoly int, shard *polynomial.Set) error) error {
	load := s.tr.begin(s.parent, s.layer, "ForEachShard")
	err := pass(func(i, firstPoly int, shard *polynomial.Set) error {
		use := s.tr.begin(load, s.consumer, "shard")
		err := fn(i, firstPoly, shard)
		s.tr.end(use, shard.Size())
		return err
	})
	s.tr.end(load, s.Size())
	return err
}

// store is the out-of-core workload: the paper-scale telephony set under a
// residency budget an eighth of its size, so every pass spills or decodes.
type store struct {
	names  *polynomial.Names
	set    *polynomial.Set
	tree   *abstraction.Tree
	budget int
	bound  int
	dir    string
	opts   cobra.Options

	full, comp *cobra.Dataset
	res        *core.Result
	// traced runs only: sources the decomposed route reads directly.
	fullSrc, compSrc *polynomial.ShardedSet

	prog    *valuation.Program // in-memory reference every answer must match
	leaves  []*valuation.Assignment
	sizes   *sizeCheck
	batch16 []*valuation.Assignment
	want16  [][]float64

	// ss and file are what the last write op produced; the read, cold and
	// evict ops of the same round consume them.
	ss   *polynomial.ShardedSet
	file string
}

func (s *store) shardOptions() polynomial.ShardOptions {
	return polynomial.ShardOptions{MaxResidentMonomials: s.budget, SpillDir: s.dir}
}

func (s *store) oracle(a *valuation.Assignment) ([]float64, error) {
	return s.prog.EvalBatchN([]*valuation.Assignment{a}, nil, 1)[0], nil
}

// sourceEval is the evalFn of an out-of-core target.
func sourceEval(ds *cobra.Dataset, src polynomial.SetSource) evalFn {
	return func(tr *tracer, parent, workers int, as []*valuation.Assignment) ([][]float64, error) {
		if tr == nil {
			return ds.WithWorkers(workers).EvalBatch(ctx, as)
		}
		return evalSource(tr, parent, src, "polynomial", workers, as)
	}
}

func evalSource(tr *tracer, parent int, src polynomial.SetSource, layer string, workers int, as []*valuation.Assignment) ([][]float64, error) {
	sp := tr.begin(parent, "valuation", "EvalBatchSource")
	rows, err := valuation.EvalBatchSource(&spanSource{src, tr, sp, layer, "valuation"}, as, workers)
	tr.end(sp, len(as)*src.Size())
	return rows, err
}

// write shards the set under the budget (spilling) and streams it to a
// compressed, indexed v3 file.
func (s *store) write(x *runner, _ int) {
	x.timed("store_write", func(root int) (func() error, error) {
		if s.ss != nil {
			s.ss.Close() // a failed round left it behind
		}
		sp := x.tr.begin(root, "polynomial", "BuildSharded")
		ss, err := polynomial.BuildSharded(s.set, s.shardOptions())
		x.tr.end(sp, s.set.Size())
		if err != nil {
			return nil, err
		}
		s.ss = ss
		sp = x.tr.begin(root, "polyio", "WriteSetStreamV3")
		err = writeV3(&spanSource{ss, x.tr, sp, "polynomial", "polyio"}, s.file)
		x.tr.end(sp, ss.Size())
		if err != nil {
			return nil, err
		}
		return func() error {
			if peak := ss.PeakResidentMonomials(); peak > s.budget {
				return fmt.Errorf("peak residency %d exceeds budget %d", peak, s.budget)
			}
			if ss.Size() != s.set.Size() || ss.Len() != s.set.Len() {
				return fmt.Errorf("sharded set holds %d monomials in %d polynomials, want %d in %d", ss.Size(), ss.Len(), s.set.Size(), s.set.Len())
			}
			return nil
		}, nil
	})
}

func writeV3(src polynomial.SetSource, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = polyio.WriteSetStreamV3(f, src, polyio.V3Options{Compress: true})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// read opens the file (footer, checksums) and decodes every shard in
// order.
func (s *store) read(x *runner, _ int) {
	x.timed("store_read", func(root int) (func() error, error) {
		sp := x.tr.begin(root, "polyio", "OpenIndexedFile")
		ix, err := polyio.OpenIndexedFile(s.file, s.names)
		x.tr.end(sp, 1)
		if err != nil {
			return nil, err
		}
		defer ix.Close()
		polys, mons := 0, 0
		sp = x.tr.begin(root, "polyio", "ForEachShard")
		err = ix.ForEachShard(func(_, _ int, shard *polynomial.Set) error {
			polys += shard.Len()
			mons += shard.Size()
			return nil
		})
		x.tr.end(sp, mons)
		if err != nil {
			return nil, err
		}
		return func() error {
			if polys != s.set.Len() || mons != s.set.Size() {
				return fmt.Errorf("decoded %d monomials in %d polynomials, want %d in %d", mons, polys, s.set.Size(), s.set.Len())
			}
			return nil
		}, nil
	})
}

// cold goes from the file on disk to a first what-if answer without ever
// holding the set in memory.
func (s *store) cold(x *runner, i int) {
	leaf := s.leaves[i%len(s.leaves)]
	forest := cobra.Forest{s.tree}
	x.timed("cold", func(root int) (func() error, error) {
		sp := x.tr.begin(root, "polyio", "OpenIndexedFile")
		ix, err := polyio.OpenIndexedFile(s.file, s.names)
		x.tr.end(sp, 1)
		if err != nil {
			return nil, err
		}
		ix.SetResidencyBudget(s.budget)
		ds, err := openDataset(x.tr, root, "cold", ix, forest, s.opts)
		if err != nil {
			ix.Close()
			return nil, err
		}
		defer ds.Close()
		var ans *answer
		if x.tr == nil {
			ans, err = facadeTail(x, ds, s.bound, leaf)
		} else {
			ans, err = s.layerTail(x.tr, root, ix, leaf)
		}
		if err != nil {
			return nil, err
		}
		return func() error { return ans.check(s.sizes, s.oracle) }, nil
	})
}

// layerTail is facadeTail's out-of-core route as layer calls: the DP over
// decoded shards, the cut applied into a fresh budgeted shard builder, and
// the answer evaluated shard at a time.
func (s *store) layerTail(tr *tracer, root int, ix *polyio.IndexedSet, leaf *valuation.Assignment) (*answer, error) {
	sp := tr.begin(root, "core", "CompressSource")
	res, err := core.CompressSource(&spanSource{ix, tr, sp, "polyio", "core"}, cobra.Forest{s.tree}, s.bound, 1)
	tr.end(sp, ix.Size())
	if err != nil {
		return nil, err
	}
	sp = tr.begin(root, "abstraction", "ApplySource")
	b := polynomial.NewShardBuilder(s.names, s.shardOptions())
	defer b.Discard()
	if err = abstraction.ApplySource(&spanSource{ix, tr, sp, "polyio", "abstraction"}, b, 1, res.Cuts...); err != nil {
		tr.end(sp, ix.Size())
		return nil, err
	}
	tr.end(sp, ix.Size())
	sp = tr.begin(root, "polynomial", "ShardBuilder.Finish")
	comp, err := b.Finish()
	tr.end(sp, 1)
	if err != nil {
		return nil, err
	}
	defer comp.Close()
	sp = tr.begin(root, "valuation", "Induced")
	a := valuation.Induced(leaf, res.Cuts...)
	tr.end(sp, a.Len())
	rows, err := evalSource(tr, root, comp, "polynomial", 1, []*valuation.Assignment{a})
	if err != nil {
		return nil, err
	}
	return &answer{bound: s.bound, res: res, compSize: comp.Size(), scenario: a, row: rows[0]}, nil
}

// evict hands the sharded set to a Dataset, evicts it (persist to disk,
// drop from memory) and answers a batch, which reloads it.
func (s *store) evict(x *runner, _ int) {
	x.timed("evict", func(root int) (func() error, error) {
		ss := s.ss
		s.ss = nil // consumed either way
		if ss == nil {
			return nil, fmt.Errorf("no sharded set to evict: the round's write failed")
		}
		var rows [][]float64
		if x.tr == nil {
			ds, err := cobra.OpenDataset("evict", ss, cobra.Forest{s.tree}, s.opts)
			if err != nil {
				ss.Close()
				return nil, err
			}
			defer ds.Close()
			sw := startWatch()
			evicted, err := ds.Evict()
			if err != nil {
				return nil, err
			}
			if !evicted {
				return nil, fmt.Errorf("out-of-core dataset was not evicted")
			}
			x.part("evict.persist", sw.stop())
			if rows, err = ds.EvalBatch(ctx, s.batch16); err != nil {
				return nil, err
			}
		} else {
			path := filepath.Join(s.dir, "evicted.v3")
			sp := x.tr.begin(root, "polyio", "WriteSetStreamV3")
			err := writeV3(&spanSource{ss, x.tr, sp, "polynomial", "polyio"}, path)
			x.tr.end(sp, ss.Size())
			ss.Close()
			if err != nil {
				return nil, err
			}
			defer os.Remove(path)
			sp = x.tr.begin(root, "polyio", "OpenIndexedFile")
			ix, err := polyio.OpenIndexedFile(path, s.names)
			x.tr.end(sp, 1)
			if err != nil {
				return nil, err
			}
			defer ix.Close()
			ix.SetResidencyBudget(s.budget)
			if rows, err = evalSource(x.tr, root, ix, "polyio", 1, s.batch16); err != nil {
				return nil, err
			}
		}
		return func() error { return checkRows(rows, s.want16, 0) }, nil
	})
}

func (s *store) close() {
	for _, ds := range []*cobra.Dataset{s.comp, s.full} {
		if ds != nil {
			ds.Close()
		}
	}
	for _, ss := range []*polynomial.ShardedSet{s.ss, s.compSrc, s.fullSrc} {
		if ss != nil {
			ss.Close()
		}
	}
	os.RemoveAll(s.dir)
}

// buildStore sets up store_outofcore.
func buildStore(name string, seed int64, sc scale, tr *tracer) (w *workload, err error) {
	w = newWorkload(name)
	traced := tr != nil
	customers := 1_000_000
	if sc == smoke {
		customers = 20_000
	}
	s := &store{names: polynomial.NewNames()}
	sw := startWatch()
	s.set = telephony.DirectProvenance(telephony.Config{Customers: customers}, s.names)
	s.tree = telephony.PlansTree(s.names)
	w.lap("generate", sw)
	size := s.set.Size()
	s.budget, s.bound = size/8, size/3
	if s.dir, err = os.MkdirTemp(tmpDir, "store-"); err != nil {
		return nil, err
	}
	w.close = s.close
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	s.opts = cobra.Options{MaxResidentMonomials: s.budget, SpillDir: s.dir}
	s.file = filepath.Join(s.dir, "set.v3")
	forest := cobra.Forest{s.tree}

	ss, err := polynomial.BuildSharded(s.set, s.shardOptions())
	if err != nil {
		return nil, err
	}
	if err = writeV3(ss, s.file); err != nil {
		ss.Close()
		return nil, err
	}
	w.counts["polynomial.spilled_shards"] = float64(ss.SpilledShards())
	w.counts["polynomial.peak_resident_monomials"] = float64(ss.PeakResidentMonomials())
	if s.full, err = cobra.OpenDataset("full", ss, forest, s.opts); err != nil {
		ss.Close()
		return nil, err
	}
	if s.res, err = s.full.Compress(ctx, s.bound); err != nil {
		return nil, err
	}
	if s.comp, err = s.full.Apply(ctx, s.res.Cuts...); err != nil {
		return nil, err
	}
	if traced {
		if s.fullSrc, err = polynomial.BuildSharded(s.set, s.shardOptions()); err != nil {
			return nil, err
		}
		b := polynomial.NewShardBuilder(s.names, s.shardOptions())
		defer b.Discard()
		if err = abstraction.ApplySource(s.fullSrc, b, 1, s.res.Cuts...); err != nil {
			return nil, err
		}
		if s.compSrc, err = b.Finish(); err != nil {
			return nil, err
		}
	}
	info, err := os.Stat(s.file)
	if err != nil {
		return nil, err
	}
	w.counts["polyio.v3_bytes"] = float64(info.Size())
	cutCounts(w.counts, s.res)
	w.monomials = size

	r := rand.New(rand.NewSource(seed))
	s.leaves = coarseScenarios(r, 16, s.set, forest)
	s.sizes = newSizeCheck(s.set)
	groups := append(cutGroups(s.res.Cuts...), contextGroups(s.set.UsedVars(), forest)...)
	// Every out-of-core answer decodes the whole set: a pass over the usual
	// pool would take a third of a second, so the pool is a quarter of it.
	q := newWhatif(r, sc, sliderPool/4, s.names, s.res.Cuts, groups, groups)
	// With fullSrc nil (untraced) the interface must be nil too, not a
	// typed nil pointer.
	var fullSrc, compSrc polynomial.SetSource
	if traced {
		fullSrc, compSrc = s.fullSrc, s.compSrc
	}
	q.comp, q.full = sourceEval(s.comp, compSrc), sourceEval(s.full, fullSrc)
	q.oracle = s.oracle
	s.batch16 = q.batches[0][:16]

	w.prepare = func(*runner) error {
		s.prog = valuation.Compile(s.set)
		s.want16 = s.prog.EvalBatchN(s.batch16, nil, 1)
		return q.prepare(w, s.set)
	}
	w.probes = func(x *runner) { s.probes(x) }
	w.phases = append([]phase{
		{name: "store_write", perRound: 1, heavy: true, run: s.write},
		{name: "store_read", perRound: 1, heavy: true, run: s.read},
		{name: "cold", perRound: 2, heavy: true, run: s.cold},
		{name: "evict", perRound: 1, heavy: true, run: s.evict},
	}, q.phases(w, mix{sliderPasses: 3, sliderFullPasses: 1, batch: 3, batchFull: 1})...)
	return w, nil
}

// probes times the storage layers alone: materializing the spilled set,
// sequential against two-worker decode of the v3 file, and shard-at-a-time
// evaluation.
func (s *store) probes(x *runner) {
	const n = 5
	x.probe("polynomial.materialize", n, func() {
		if _, err := s.fullSrc.Materialize(); err != nil {
			x.fail("probe polynomial.materialize", err)
		}
	})
	ix, err := polyio.OpenIndexedFile(s.file, s.names)
	if err != nil {
		x.fail("probe polyio.OpenIndexedFile", err)
		return
	}
	defer ix.Close()
	nothing := func(_, _ int, _ *polynomial.Set) error { return nil }
	x.probe("polyio.v3_read.w1", n, func() {
		if err := ix.ForEachShard(nothing); err != nil {
			x.fail("probe polyio.v3_read", err)
		}
	})
	onTwoCPUs(func() {
		x.probe("polyio.v3_read.w2", n, func() {
			if err := ix.ForEachShardParallel(2, nothing); err != nil {
				x.fail("probe polyio.v3_read", err)
			}
		})
	})
	x.probe("valuation.evalbatch_source", n, func() {
		if _, err := valuation.EvalBatchSource(s.fullSrc, s.batch16, 1); err != nil {
			x.fail("probe valuation.evalbatch_source", err)
		}
	})
}
