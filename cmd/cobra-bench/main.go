// Command cobra-bench runs the reproduction experiment suite (E1–E11 and
// E14–E16, see internal/experiments) and prints each experiment's
// paper-vs-measured table. With -markdown it emits the tables in the
// format used by EXPERIMENTS.md. (The on-disk formats are measured by the
// store_outofcore workload of benchmark/, not by an experiment.)
//
// Usage:
//
//	cobra-bench                      # default scale (100k customers, SF 0.01)
//	cobra-bench -scale paper         # the paper's 1M-customer measurement
//	cobra-bench -only E3,E8 -markdown
//	cobra-bench -only E4 -workers 0  # the hot paths at GOMAXPROCS workers (tables are identical for every count)
//	cobra-bench -only E14            # out-of-core compression under a memory budget
//	cobra-bench -only E15            # streaming capture under a memory budget
//	cobra-bench -only E16            # batched frontier sweep vs per-bound recompression
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/cobra-prov/cobra/internal/experiments"
)

func main() {
	var (
		scale    = flag.String("scale", "default", "quick | default | paper")
		only     = flag.String("only", "", "comma-separated experiment ids (default: all)")
		markdown = flag.Bool("markdown", false, "emit markdown tables")
		workers  = flag.Int("workers", 1, "goroutines for the compression/valuation/capture hot paths; 1 = sequential, 0 = GOMAXPROCS")
	)
	flag.Parse()
	if err := run(*scale, *only, *markdown, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "cobra-bench:", err)
		os.Exit(1)
	}
}

func run(scale, only string, markdown bool, workers int) error {
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

	want := map[string]bool{}
	if only != "" {
		for _, id := range strings.Split(only, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}

	start := time.Now()
	ran := 0
	for _, r := range experiments.All() {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		tab, err := r.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		if markdown {
			fmt.Print(tab.Markdown())
		} else {
			fmt.Println(tab.Render())
		}
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiments matched %q", only)
	}
	fmt.Fprintf(os.Stderr, "cobra-bench: %d experiments in %s (scale %s, %d customers, SF %g, %d workers)\n",
		ran, time.Since(start).Round(time.Millisecond), scale, cfg.TelephonyCustomers, cfg.TPCHSF, cfg.Workers)
	return nil
}
