package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/core"
	"github.com/cobra-prov/cobra/internal/datagen/telephony"
	"github.com/cobra-prov/cobra/internal/polyio"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/valuation"
)

// countWriter counts the bytes written through it.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// E17DiskFormat measures the v3 indexed on-disk format against v2 on a
// spill-heavy telephony workload: the provenance is sharded under a 1/8
// memory budget, written in v2, v3-uncompressed and v3-compressed form
// (disk bytes recorded for each), then the compressed v3 file is decoded
// back both sequentially and through the parallel random-access reader.
// Every decode — any order, any worker count — must reproduce the
// original set bit-identically, and Compress/EvalBatch answers computed
// straight off the indexed file must match the in-memory ones at every
// worker count. The experiment fails if compressed v3 does not reach
// 0.6x of the v2 byte size.
func E17DiskFormat(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	start := time.Now()
	t := &Table{
		ID:      "E17",
		Title:   "Indexed on-disk format (v3 vs v2, parallel decode)",
		Columns: []string{"stage", "workers", "disk bytes", "ratio vs v2", "elapsed", "identical"},
	}

	names := polynomial.NewNames()
	set := telephony.DirectProvenance(telephony.Config{Customers: cfg.TelephonyCustomers}, names)
	tree := telephony.PlansTree(names)
	bound := set.Size() / 2
	budget := set.Size() / 8
	if budget < 2 {
		budget = 2
	}
	ss, err := polynomial.BuildSharded(set, polynomial.ShardOptions{MaxResidentMonomials: budget})
	if err != nil {
		return nil, err
	}
	defer ss.Close()

	// Disk bytes per format, from the same sharded source.
	v2w := &countWriter{w: io.Discard}
	if err := polyio.WriteSetStream(v2w, ss); err != nil {
		return nil, err
	}
	v3uw := &countWriter{w: io.Discard}
	if err := polyio.WriteSetStreamV3(v3uw, ss, polyio.V3Options{}); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "cobra-e17-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "set.v3")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	v3cw := &countWriter{w: f}
	if err := polyio.WriteSetStreamV3(v3cw, ss, polyio.V3Options{Compress: true}); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	ratio := func(n int64) string { return fmt.Sprintf("%.3f", float64(n)/float64(v2w.n)) }
	t.AddRow("write v2", "-", v2w.n, "1.000", "-", "-")
	t.AddRow("write v3", "-", v3uw.n, ratio(v3uw.n), "-", "-")
	t.AddRow("write v3+deflate", "-", v3cw.n, ratio(v3cw.n), "-", "-")
	if float64(v3cw.n) > 0.6*float64(v2w.n) {
		return nil, fmt.Errorf("E17: compressed v3 is %d bytes, above 0.6x of v2's %d", v3cw.n, v2w.n)
	}

	ix, err := polyio.OpenIndexedFile(path, names)
	if err != nil {
		return nil, err
	}
	defer ix.Close()

	// Sequential vs parallel decode of the same indexed file; every decode
	// must rebuild the set bit-identically and deliver shards in order.
	decode := func(workers int) (*polynomial.Set, time.Duration, error) {
		out := polynomial.NewSet(names)
		t0 := time.Now()
		next := 0
		pass := ix.ForEachShard
		if workers > 1 {
			pass = func(fn func(i, firstPoly int, s *polynomial.Set) error) error {
				return ix.ForEachShardParallel(workers, fn)
			}
		}
		err := pass(func(i, _ int, s *polynomial.Set) error {
			if i != next {
				return fmt.Errorf("shard %d delivered out of order (want %d)", i, next)
			}
			next++
			for p := range s.Keys {
				if err := out.Add(s.Keys[p], s.Polys[p]); err != nil {
					return err
				}
			}
			return nil
		})
		return out, time.Since(t0), err
	}
	for _, w := range []int{1, 2, 8} {
		got, elapsed, err := decode(w)
		if err != nil {
			return nil, err
		}
		identical := sameSet(set, got)
		stage := "decode sequential"
		if w > 1 {
			stage = "decode parallel"
		}
		t.AddRow(stage, w, "-", "-", elapsed, yesNo(identical))
		if !identical {
			return nil, fmt.Errorf("E17: decode at %d workers differs from the original set", w)
		}
	}

	// Solver oracle straight off the indexed file: Compress and EvalBatch
	// over the v3 source must equal the in-memory answers at every worker
	// count.
	want, err := core.DPSingleTreeSource(set, tree, bound, 1)
	if err != nil {
		return nil, err
	}
	assignments := make([]*valuation.Assignment, 5)
	used := set.UsedVars()
	for i := range assignments {
		a := valuation.New(names)
		a.SetVar(used[i%len(used)], 0.25*float64(i+1))
		assignments[i] = a
	}
	wantRows, err := valuation.EvalBatchSource(set, assignments, 1)
	if err != nil {
		return nil, err
	}
	for _, w := range []int{1, 2, 8} {
		res, err := core.CompressSource(ix, abstraction.Forest{tree}, bound, w)
		if err != nil {
			return nil, err
		}
		rows, err := valuation.EvalBatchSource(ix, assignments, w)
		if err != nil {
			return nil, err
		}
		identical := sameResult(want, res) && sameRows(wantRows, rows)
		t.AddRow("compress+eval", w, "-", "-", "-", yesNo(identical))
		if !identical {
			return nil, fmt.Errorf("E17: indexed compress/eval differs from in-memory at %d workers", w)
		}
	}

	t.Note("disk bytes = full stream size for the sharded telephony provenance (budget = size/8, spill-heavy)")
	t.Note("identical = decoded set, compression result and evaluation rows are bit-identical to the in-memory baseline")
	t.Elapsed = time.Since(start)
	return t, nil
}
