package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// series is one (workload, metric) pair's values across the runs of a file.
type series struct {
	workload string
	def      metric
	values   []float64
}

func (s *series) key() string { return s.workload + "\x00" + s.def.Name }

// readRuns loads an -out file: one record per line, grouped by workload
// and metric in order of first appearance.
func readRuns(path string) ([]*series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	byKey := make(map[string]*series)
	var order []*series
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, m := range r.Metrics {
			s := &series{workload: r.Workload, def: m}
			if have, ok := byKey[s.key()]; ok {
				s = have
			} else {
				byKey[s.key()] = s
				order = append(order, s)
			}
			s.values = append(s.values, m.Value)
		}
	}
	return order, sc.Err()
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise a difference has to clear.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	s := (q3 - q1) / q2
	if s < 0 {
		s = -s
	}
	return s
}

// verdict classifies b against a. An exact count either repeats or has
// changed. For a gated metric a change beyond the bound in the worse
// direction is a regression; one beyond the spread in the better direction
// an improvement; and when the spread itself is wider than the bound the
// pair cannot be resolved either way.
func verdict(def metric, a, b []float64) string {
	ma, mb := median(a), median(b)
	if def.Clock == "exact" {
		if ma != mb {
			return "changed"
		}
		return "unchanged"
	}
	if def.Bound == 0 {
		return "-" // per-layer: reported, not gated
	}
	if ma == 0 {
		return "-"
	}
	noise := max(spread(a), spread(b))
	if noise > def.Bound {
		return "unresolved"
	}
	worse := (mb - ma) / ma
	if def.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > def.Bound:
		return "regressed"
	case -worse > noise && worse != 0:
		return "improved"
	}
	return "unchanged"
}

func describe(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g, %.6g] n=%d", q2, q1, q3, len(xs))
}

// compareFiles prints one row per (metric, workload). With one file the
// row is the metric's spread against its bound; with two, both medians
// with quartiles, the ratio with its base, and the verdict.
func compareFiles(w io.Writer, paths []string) error {
	if len(paths) < 1 || len(paths) > 2 {
		return fmt.Errorf("-compare takes one or two files, got %d", len(paths))
	}
	a, err := readRuns(paths[0])
	if err != nil {
		return err
	}
	if len(paths) == 1 {
		fmt.Fprintf(w, "%-18s %-38s %-44s %8s %6s  %s\n", "workload", "metric", "median [q1, q3]", "spread", "bound", "")
		for _, s := range a {
			note := ""
			if s.def.Bound > 0 {
				note = "ok"
				if sp := spread(s.values); sp > s.def.Bound {
					note = "EXCEEDS BOUND"
				} else if sp > s.def.Bound/3 {
					note = "above a third of the bound"
				}
			}
			fmt.Fprintf(w, "%-18s %-38s %-44s %7.2f%% %5.0f%%  %s\n", s.workload, s.def.Name, describe(s.values), 100*spread(s.values), 100*s.def.Bound, note)
		}
		return nil
	}
	b, err := readRuns(paths[1])
	if err != nil {
		return err
	}
	other := make(map[string]*series)
	for _, s := range b {
		other[s.key()] = s
	}
	counts := make(map[string]int)
	fmt.Fprintf(w, "%-18s %-38s %-44s %-44s %-18s %s\n", "workload", "metric", "a: median [q1, q3]", "b: median [q1, q3]", "b/a (base a)", "verdict")
	for _, s := range a {
		t, ok := other[s.key()]
		if !ok {
			continue
		}
		v := verdict(s.def, s.values, t.values)
		counts[v]++
		fmt.Fprintf(w, "%-18s %-38s %-44s %-44s %-18s %s\n", s.workload, s.def.Name, describe(s.values), describe(t.values),
			fmt.Sprintf("%.4f (%.6g)", ratio(median(t.values), median(s.values)), median(s.values)), v)
	}
	var kinds []string
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		if k != "-" {
			fmt.Fprintf(w, "%s: %d\n", k, counts[k])
		}
	}
	return nil
}
