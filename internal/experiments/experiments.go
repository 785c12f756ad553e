// Package experiments implements the reproduction harness: one runner per
// experiment of the index All returns (E1–E9 and E11, the paper-fidelity
// tables), each producing a Table that pairs the paper's reported values
// with our measurements. cmd/cobra-bench prints them and is the package's
// only importer; engineering measurements (pipeline stages, out-of-core,
// streaming capture, the frontier sweep) are workloads of benchmark/.
package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Config scales the experiments.
type Config struct {
	// TelephonyCustomers for E3–E6 (paper scale: 1,000,000). Default 100,000.
	TelephonyCustomers int
	// TPCHSF is the TPC-H scale factor for E8 (default 0.01).
	TPCHSF float64
	// Quick trims sweeps and scales for use inside unit tests.
	Quick bool
	// Workers caps the goroutines the compression, valuation and
	// provenance-capture hot paths may use; <= 1 (the default) keeps every
	// experiment sequential. Results are bit-identical for every value.
	Workers int
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.TelephonyCustomers <= 0 {
		c.TelephonyCustomers = 100_000
	}
	if c.TPCHSF <= 0 {
		c.TPCHSF = 0.01
	}
	if c.Quick {
		if c.TelephonyCustomers > 20_000 {
			c.TelephonyCustomers = 20_000
		}
		if c.TPCHSF > 0.002 {
			c.TPCHSF = 0.002
		}
	}
	return c
}

// PaperScale is the configuration reproducing the numbers quoted in
// Section 4 of the paper (one million customers).
func PaperScale() Config {
	return Config{TelephonyCustomers: 1_000_000, TPCHSF: 0.01}
}

// Table is one experiment's result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
	Elapsed time.Duration
}

// AddRow appends a row of cells (stringified).
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case time.Duration:
			row[i] = v.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note appends a footnote.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s", t.ID, t.Title)
	if t.Elapsed > 0 {
		fmt.Fprintf(&sb, "  (ran in %s)", t.Elapsed.Round(time.Millisecond))
	}
	sb.WriteString("\n")

	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		sb.WriteString("\n")
	}
	writeRow(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Runner is a named experiment.
type Runner struct {
	ID   string
	Name string
	Run  func(Config) (*Table, error)
}

// All is the experiment index: every runner, in E-number order.
func All() []Runner {
	return []Runner{
		{"E1", "Running example provenance (Example 2)", E1RunningExample},
		{"E2", "Example cuts S1–S5 (Example 4)", E2ExampleCuts},
		{"E3", "Section-4 compression at scale", E3Section4},
		{"E4", "Provenance size & variables vs bound", E4BoundSweep},
		{"E5", "Assignment speedup vs bound", E5SpeedupSweep},
		{"E6", "Scenario accuracy under compression", E6ScenarioAccuracy},
		{"E7a", "Algorithm scaling", E7AlgorithmScaling},
		{"E7b", "DP vs greedy vs exhaustive (ablation)", E7Ablation},
		{"E8", "TPC-H provenance compression", E8TPCH},
		{"E9", "Commutation (correctness guarantee)", E9Commutation},
		{"E11", "Two-dimensional abstraction (plans × quarters)", E11Forest},
	}
}
