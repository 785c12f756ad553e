// Command cobra-bench runs the paper-fidelity experiment suite (E1–E9 and
// E11, see internal/experiments) and prints each experiment's
// paper-vs-measured table. Engineering measurements — pipeline stages,
// out-of-core, streaming capture, the frontier sweep, the on-disk formats —
// are workloads of benchmark/, not experiments; asking for one of their
// retired ids names the workload that replaced it.
//
// Usage:
//
//	cobra-bench                      # default scale (100k customers, SF 0.01)
//	cobra-bench -scale paper         # the paper's 1M-customer measurement
//	cobra-bench -only E3,E8
//	cobra-bench -only E4 -workers 0  # the hot paths at GOMAXPROCS workers (tables are identical for every count)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/cobra-prov/cobra/internal/experiments"
)

func main() {
	var (
		scale   = flag.String("scale", "default", "quick | default | paper")
		only    = flag.String("only", "", "comma-separated experiment ids (default: all)")
		workers = flag.Int("workers", 1, "goroutines for the compression/valuation/capture hot paths; 1 = sequential, 0 = GOMAXPROCS")
	)
	flag.Parse()
	if err := run(os.Stdout, *scale, *only, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "cobra-bench:", err)
		os.Exit(1)
	}
}

// retired maps the id of a deleted experiment to what measures it now.
var retired = map[string]string{
	"E10": "the capture_telephony workload of benchmark/ with --trace 1",
	"E12": "the core.dp_w2_ratio, abstraction.apply_w2_ratio and valuation.batch_w2_ratio probes of benchmark/ and the *WorkersIdentical tests",
	"E13": "the capture workloads of benchmark/ and TestCaptureNWorkerSweep",
	"E14": "the store_outofcore workload of benchmark/",
	"E15": "the provenance.capture_stream_rows_per_s probe of benchmark/'s capture workloads",
	"E16": "the compress_sweep workload of benchmark/",
	"E17": "the store_outofcore workload of benchmark/ and BenchmarkSetCodec in internal/polyio",
}

// selectRunners resolves -only against the experiment index. Every
// requested id must exist: one unknown id fails the whole request before
// anything runs.
func selectRunners(only string) ([]experiments.Runner, error) {
	all := experiments.All()
	if only == "" {
		return all, nil
	}
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		want[strings.TrimSpace(id)] = true
	}
	var picked []experiments.Runner
	for _, r := range all {
		if want[r.ID] {
			picked = append(picked, r)
			delete(want, r.ID)
		}
	}
	if len(want) == 0 {
		return picked, nil
	}
	var unknown []string
	for id := range want {
		msg := fmt.Sprintf("%q", id)
		if by, ok := retired[id]; ok {
			msg += " (retired: measured by " + by + ")"
		}
		unknown = append(unknown, msg)
	}
	sort.Strings(unknown)
	return nil, fmt.Errorf("unknown experiment id: %s", strings.Join(unknown, "; "))
}

func run(w io.Writer, scale, only string, workers int) error {
	var cfg experiments.Config
	switch scale {
	case "quick":
		cfg = experiments.Config{Quick: true}
	case "default":
		cfg = experiments.Config{}
	case "paper":
		cfg = experiments.PaperScale()
	default:
		return fmt.Errorf("unknown scale %q", scale)
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	cfg.Workers = workers
	cfg = cfg.WithDefaults()

	runners, err := selectRunners(only)
	if err != nil {
		return err
	}

	start := time.Now()
	for _, r := range runners {
		tab, err := r.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		fmt.Fprintln(w, tab.Render())
	}
	fmt.Fprintf(os.Stderr, "cobra-bench: %d experiments in %s (scale %s, %d customers, SF %g, %d workers)\n",
		len(runners), time.Since(start).Round(time.Millisecond), scale, cfg.TelephonyCustomers, cfg.TPCHSF, cfg.Workers)
	return nil
}
