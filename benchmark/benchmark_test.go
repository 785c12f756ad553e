package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/cobra-prov/cobra/internal/polyio"
)

// contract mirrors ../BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestContractMatchesTables keeps BENCHMARK.json and the tables the program
// reports from in step: same workloads, same metrics, same units,
// directions and bounds.
func TestContractMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program runs %v", names, workloadNames)
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(c.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, m := range c.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, program has %+v", i, m, d)
		}
		if !nameRE.MatchString(d.Name) || d.Unit == "" || d.Clock == "" || d.Bound <= 0 || d.Bound > 0.25 ||
			(d.Better != "lower" && d.Better != "higher") {
			t.Errorf("end-to-end metric %q lacks a valid name, unit, direction, clock or bound: %+v", d.Name, d)
		}
		sawSetup = sawSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !sawSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(c.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(c.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range c.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, program has %+v", i, m, d)
		}
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("per-layer metric name %q is invalid or repeated", d.Name)
		}
		seen[d.Name] = true
	}
}

func metricNames(ms []metric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

func defNames(ds []metricDef) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Name
	}
	return out
}

// TestSmoke runs every workload at smoke scale, untraced and traced: no
// operation may fail, the reported names are the contract's, every
// end-to-end value is non-zero, the decomposition composes back to the
// facade's cost, and two set-ups from one seed count the same things.
func TestSmoke(t *testing.T) {
	tmpDir = t.TempDir()
	const window = 300 * time.Millisecond
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			plain, err := measure(name, 7, smoke, window, false)
			if err != nil {
				t.Fatal(err)
			}
			defer plain.w.close()
			if plain.facade.failed != 0 {
				t.Fatalf("untraced: %d of %d ops failed: %v", plain.facade.failed, plain.facade.ops, plain.facade.failures)
			}
			e2e := plain.endToEndMetrics()
			if got, want := metricNames(e2e), defNames(endToEnd); !reflect.DeepEqual(got, want) {
				t.Errorf("end-to-end metrics %v, want %v", got, want)
			}
			for _, m := range e2e {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want a positive value", m.Name, m.Value)
				}
			}

			traced, err := measure(name, 7, smoke, window, true)
			if err != nil {
				t.Fatal(err)
			}
			defer traced.w.close()
			if failed := traced.facade.failed + traced.traced.failed; failed != 0 {
				t.Fatalf("traced: %d ops failed: %v %v", failed, traced.facade.failures, traced.traced.failures)
			}
			layers := traced.perLayerMetrics()
			if got, want := metricNames(layers), defNames(perLayer); !reflect.DeepEqual(got, want) {
				t.Errorf("per-layer metrics %v, want %v", got, want)
			}
			for _, m := range layers {
				// Smoke-scale ops are microseconds long and a window holds
				// a round or two, so the spans' own cost and plain noise
				// show; at full scale the range is 95-105. This catches a
				// decomposition that lost or doubled a layer.
				if m.Name == "trace.coverage_pct" && (m.Value < 65 || m.Value > 135) {
					t.Errorf("trace.coverage_pct = %.1f: the layer spans do not add up to the facade's cost", m.Value)
				}
			}
			if !reflect.DeepEqual(plain.w.counts, traced.w.counts) {
				t.Errorf("two set-ups from seed 7 disagree on exact counts:\n%v\n%v", plain.w.counts, traced.w.counts)
			}
		})
	}
}

// TestSameSeedSameInputs: the retail generator is a function of its seed.
func TestSameSeedSameInputs(t *testing.T) {
	text := func(seed int64) string {
		rt, err := generateRetail(retailSmoke, seed)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := polyio.WriteSetText(&b, rt.set); err != nil {
			t.Fatal(err)
		}
		return b.String() + rt.skus.String() + rt.weeks.String()
	}
	if text(3) != text(3) {
		t.Error("seed 3 generated two different instances")
	}
	if text(3) == text(4) {
		t.Error("seeds 3 and 4 generated the same instance")
	}
}

// TestQuartiles pins the cut points to Python's
// statistics.quantiles(range(1, 11), n=4), which the driver uses.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metric{Name: "x_ms", Better: "lower", Bound: 0.10}
	steady := func(center float64) []float64 {
		return []float64{center * 0.99, center, center, center * 1.01, center}
	}
	noisy := []float64{60, 100, 100, 140, 100}
	for _, tc := range []struct {
		name string
		a, b []float64
		want string
	}{
		{"same", steady(100), steady(100), "unchanged"},
		{"slower", steady(100), steady(120), "regressed"},
		{"faster", steady(100), steady(80), "improved"},
		{"within bound", steady(100), steady(105), "unchanged"},
		{"too noisy", noisy, steady(100), "unresolved"},
	} {
		if got := verdict(lower, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	higher := metric{Name: "x_per_s", Better: "higher", Bound: 0.10}
	if got := verdict(higher, steady(100), steady(80)); got != "regressed" {
		t.Errorf("higher-is-better drop: verdict %q, want regressed", got)
	}
}
