// Command benchmark measures the capture → compress → what-if pipeline end
// to end and layer by layer. See README.md and ../BENCHMARK.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workloadNames are the workloads of BENCHMARK.json, in its order.
var workloadNames = []string{
	"capture_telephony", "capture_tpch", "compress_sweep", "whatif_telephony",
	"whatif_retail", "store_outofcore", "serve_mixed",
}

// build sets one workload up from the seed. A tracer selects the traced
// form: the decomposed route is prepared beside the public one.
func build(name string, seed int64, sc scale, tr *tracer) (*workload, error) {
	switch name {
	case "capture_telephony":
		return buildCaptureTelephony(name, seed, sc, tr)
	case "capture_tpch":
		return buildCaptureTPCH(name, seed, sc, tr)
	case "compress_sweep", "whatif_retail":
		return buildRetail(name, seed, sc, tr)
	case "whatif_telephony":
		return buildTelephony(name, seed, sc, tr)
	case "store_outofcore":
		return buildStore(name, seed, sc, tr)
	case "serve_mixed":
		return buildServing(name, seed, sc, tr)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s, or all)", name, strings.Join(workloadNames, ", "))
}

// record is one run of one workload, as appended to the -out file.
type record struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	Scale     string   `json:"scale"`
	WindowS   float64  `json:"window_s"`
	Ops       int      `json:"ops"`
	OpsFailed int      `json:"ops_failed"`
	Failures  []string `json:"failures,omitempty"`
	Metrics   []metric `json:"metrics"`
}

// result is the line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run measures one workload and returns its record.
func run(name string, seed int64, sc scale, d time.Duration, traced bool, out string) (*record, error) {
	m, err := measure(name, seed, sc, d, traced)
	if err != nil {
		return nil, err
	}
	defer m.w.close()
	rec := &record{Workload: name, Seed: seed, Trace: traced, Scale: "full", WindowS: m.window.Seconds(),
		Ops: m.facade.ops, OpsFailed: m.facade.failed, Failures: m.facade.failures}
	if sc == smoke {
		rec.Scale = "smoke"
	}
	if traced {
		rec.Ops += m.traced.ops
		rec.OpsFailed += m.traced.failed
		rec.Failures = append(rec.Failures, m.traced.failures...)
		rec.Metrics = m.perLayerMetrics()
		if out != "" {
			if err := m.tr.writeFile(filepath.Join(filepath.Dir(out), "trace-"+name+".json")); err != nil {
				return nil, err
			}
		}
	} else {
		rec.Metrics = m.endToEndMetrics()
	}
	return rec, nil
}

func (r *record) print() {
	fmt.Printf("%s  seed=%d trace=%v scale=%s window=%.2fs ops=%d ops_failed=%d\n",
		r.Workload, r.Seed, r.Trace, r.Scale, r.WindowS, r.Ops, r.OpsFailed)
	for _, f := range r.Failures {
		fmt.Printf("  FAILED %s\n", f)
	}
	fmt.Printf("  %-40s %-6s %-5s %14s %14s %14s %14s %14s %6s\n", "metric", "unit", "clock", "value", "p10", "p25", "p50", "p75", "n")
	for _, m := range r.Metrics {
		fmt.Printf("  %-40s %-6s %-5s %14.6g %14.6g %14.6g %14.6g %14.6g %6d\n", m.Name, m.Unit, m.Clock, m.Value, m.P10, m.P25, m.P50, m.P75, m.N)
	}
}

func (r *record) result() result {
	res := result{Correct: r.OpsFailed == 0, Attempted: r.Ops, Failed: r.OpsFailed, Metrics: make(map[string]resultValue)}
	for _, m := range r.Metrics {
		res.Metrics[m.Name] = resultValue{Value: m.Value, Unit: m.Unit}
	}
	return res
}

func appendRecord(path string, r *record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(r)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func realMain() error {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		secs    = flag.Float64("seconds", 10, "how long to measure each workload")
		trace   = flag.Int("trace", 0, "1 runs the decomposed, traced form and reports per-layer metrics")
		scaleF  = flag.String("scale", "full", "instance size: full or smoke")
		out     = flag.String("out", "", "append each run as a JSON line to this file (traces go beside it)")
		compare = flag.Bool("compare", false, "compare the runs recorded in two -out files (or show the spread of one)")
		scratch = flag.String("tmp", filepath.Join(".bench_build", "tmp"), "directory for spill files and other scratch state")
	)
	flag.Parse()
	if *compare {
		return compareFiles(os.Stdout, flag.Args())
	}
	if *out != "" && runtime.NumCPU() < 2 {
		// Recorded numbers become baselines; the two-worker ratios and the
		// two-client block mean nothing on one CPU.
		return errors.New("refusing to record (-out) on a single-CPU machine")
	}
	sc := full
	switch *scaleF {
	case "full":
	case "smoke":
		sc = smoke
	default:
		return fmt.Errorf("unknown scale %q", *scaleF)
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*scratch, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if tmpDir, err = filepath.Abs(dir); err != nil {
		return err
	}

	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	for _, n := range names {
		rec, err := run(n, *seed, sc, time.Duration(*secs*float64(time.Second)), *trace != 0, *out)
		if err != nil {
			return err
		}
		rec.print()
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				return err
			}
		}
		line, err := json.Marshal(rec.result())
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}
