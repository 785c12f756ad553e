package main

import "strings"

// metricDef declares one metric of BENCHMARK.json. The JSON file and these
// tables must agree; the package's test compares them.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Clock  string  // "cpu", "wall", "count", or "exact": a count the same seed repeats exactly
	Bound  float64 // end-to-end only: the share of the parent's median it may worsen by
}

// endToEnd lists the gated metrics. Every workload reports every one of
// them: each is a quantity the user of that workload's path waits for.
// A bound is twice the metric's largest run-to-run spread over the seven
// workloads (baseline.txt), which the sandbox's minutes-long slow regimes
// push past the contract's ceiling of 0.25 for every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "cpu", 0.25},
	{"first_answer_ms", "ms", "lower", "cpu", 0.25},
	{"slider_us", "us", "lower", "wall", 0.25},
	{"slider_full_us", "us", "lower", "wall", 0.25},
	{"batch_scen_per_s", "1/s", "higher", "wall", 0.25},
	{"batch_full_scen_per_s", "1/s", "higher", "wall", 0.25},
	{"round_cpu_ms", "ms", "lower", "cpu", 0.25},
}

// perLayer lists the metrics of the traced run. A metric a workload does
// not exercise reads 0 there.
var perLayer = []metricDef{
	{"datagen.generate_s", "s", "lower", "cpu", 0},
	{"datagen.instrument_s", "s", "lower", "cpu", 0},
	{"sql.parse_us", "us", "lower", "cpu", 0},
	{"sql.plan_us", "us", "lower", "cpu", 0},
	{"engine.collect_rows_per_s", "1/s", "higher", "cpu", 0},
	{"engine.concrete_rows_per_s", "1/s", "higher", "cpu", 0},
	{"engine.stream_rows_per_s", "1/s", "higher", "cpu", 0},
	{"engine.result_rows", "count", "lower", "exact", 0},
	{"engine.alloc_bytes_per_row", "bytes", "lower", "count", 0},
	{"provenance.symbolic_overhead_ratio", "ratio", "lower", "cpu", 0},
	{"provenance.from_relation_us", "us", "lower", "cpu", 0},
	{"provenance.capture_stream_rows_per_s", "1/s", "higher", "cpu", 0},
	{"provenance.monomials_out", "count", "lower", "exact", 0},
	{"provenance.polys_out", "count", "lower", "exact", 0},
	{"core.dp_ms", "ms", "lower", "cpu", 0},
	{"core.dp_w2_ratio", "ratio", "higher", "wall", 0},
	{"core.alloc_bytes_per_monomial", "bytes", "lower", "count", 0},
	{"core.cut_size", "count", "lower", "exact", 0},
	{"core.cut_meta_vars", "count", "higher", "exact", 0},
	{"core.compressed_size_ratio", "ratio", "lower", "exact", 0},
	{"core.frontier_ms", "ms", "lower", "cpu", 0},
	{"core.sweep32_ms", "ms", "lower", "cpu", 0},
	{"core.forest_descent_ms", "ms", "lower", "cpu", 0},
	{"abstraction.apply_monomials_per_s", "1/s", "higher", "cpu", 0},
	{"abstraction.apply_w2_ratio", "ratio", "higher", "wall", 0},
	{"valuation.compile_monomials_per_s", "1/s", "higher", "cpu", 0},
	{"valuation.eval_ns_per_monomial", "ns", "lower", "cpu", 0},
	{"valuation.dense_fill_us", "us", "lower", "cpu", 0},
	{"valuation.induced_us", "us", "lower", "cpu", 0},
	{"valuation.touched_poly_share", "ratio", "lower", "exact", 0},
	{"valuation.evalbatch_w1_scen_per_s", "1/s", "higher", "wall", 0},
	{"valuation.batch_w2_ratio", "ratio", "higher", "wall", 0},
	{"valuation.evalbatch_source_scen_per_s", "1/s", "higher", "cpu", 0},
	{"valuation.slider_p99_us", "us", "lower", "wall", 0},
	{"valuation.full_over_comp_ratio", "ratio", "higher", "wall", 0},
	{"polynomial.build_sharded_monomials_per_s", "1/s", "higher", "cpu", 0},
	{"polynomial.materialize_monomials_per_s", "1/s", "higher", "cpu", 0},
	{"polynomial.spilled_shards", "count", "lower", "exact", 0},
	{"polynomial.peak_resident_monomials", "count", "lower", "exact", 0},
	{"polyio.v3_write_monomials_per_s", "1/s", "higher", "cpu", 0},
	{"polyio.v3_read_monomials_per_s", "1/s", "higher", "cpu", 0},
	{"polyio.v3_read_par_ratio", "ratio", "higher", "wall", 0},
	{"polyio.v3_bytes", "bytes", "lower", "exact", 0},
	{"polyio.text_read_mb_per_s", "MB/s", "higher", "cpu", 0},
	{"polyio.text_write_mb_per_s", "MB/s", "higher", "cpu", 0},
	{"cobra.dataset_open_us", "us", "lower", "cpu", 0},
	{"cobra.memo_hit_us", "us", "lower", "cpu", 0},
	{"cobra.evict_ms", "ms", "lower", "cpu", 0},
	{"cobra.reload_ms", "ms", "lower", "cpu", 0},
	{"cobra.facade_overhead_pct", "%", "lower", "cpu", 0},
	{"serve.overhead_us", "us", "lower", "wall", 0},
	{"serve.eval_p99_ms", "ms", "lower", "wall", 0},
	{"serve.sweep_p50_ms", "ms", "lower", "wall", 0},
	{"serve.register_p50_ms", "ms", "lower", "wall", 0},
	{"serve.resp_bytes_per_req", "bytes", "lower", "count", 0},
	{"serve.errors", "count", "lower", "count", 0},
	{"trace.overhead_pct", "%", "lower", "cpu", 0},
	{"trace.coverage_pct", "%", "higher", "cpu", 0},
	// Quantities one workload's user sees. They are not end-to-end metrics
	// because the contract wants every end-to-end metric from every
	// workload; round_cpu_ms gates them all, diluted, and these say which.
	{"capture_rows_per_s", "1/s", "higher", "cpu", 0},
	{"compress_monomials_per_s", "1/s", "higher", "cpu", 0},
	{"frontier_ms", "ms", "lower", "cpu", 0},
	{"forest_compress_ms", "ms", "lower", "cpu", 0},
	{"store_write_monomials_per_s", "1/s", "higher", "cpu", 0},
	{"store_read_monomials_per_s", "1/s", "higher", "cpu", 0},
	{"disk_bytes_per_monomial", "bytes", "lower", "exact", 0},
	{"serve_eval_p50_ms", "ms", "lower", "wall", 0},
	{"serve_cpu_us_per_req", "us", "lower", "cpu", 0},
	// Share of traced self time per group of layers likely to be optimised
	// together.
	{"share.sql_engine_provenance_pct", "%", "lower", "cpu", 0},
	{"share.core_abstraction_pct", "%", "lower", "cpu", 0},
	{"share.valuation_pct", "%", "lower", "cpu", 0},
	{"share.polyio_polynomial_pct", "%", "lower", "cpu", 0},
	{"share.cobra_pct", "%", "lower", "cpu", 0},
	{"share.serve_pct", "%", "lower", "cpu", 0},
	{"share.net_http_pct", "%", "lower", "cpu", 0},
}

// layerGroups maps a span's layer to the share metric it counts toward.
var layerGroups = map[string]string{
	"sql": "share.sql_engine_provenance_pct", "engine": "share.sql_engine_provenance_pct", "provenance": "share.sql_engine_provenance_pct",
	"core": "share.core_abstraction_pct", "abstraction": "share.core_abstraction_pct",
	"valuation": "share.valuation_pct",
	"polyio":    "share.polyio_polynomial_pct", "polynomial": "share.polyio_polynomial_pct",
	"cobra":    "share.cobra_pct",
	"serve":    "share.serve_pct",
	"net/http": "share.net_http_pct",
}

// metric is one reported value with the distribution behind it.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Clock  string  `json:"clock"`
	Bound  float64 `json:"bound,omitempty"`
	Value  float64 `json:"value"`
	P10    float64 `json:"p10"`
	P25    float64 `json:"p25"`
	P50    float64 `json:"p50"`
	P75    float64 `json:"p75"`
	N      int     `json:"n"`
}

// timing reports the fastest value of an operation's series on the metric's
// clock, scaled, with the distribution beside it.
func timing(d metricDef, x *runner, name string, scale float64) metric {
	c := cpuClock
	if d.Clock == "wall" {
		c = wallClock
	}
	xs := x.series(name, c)
	for i := range xs {
		xs[i] *= scale
	}
	q1, q2, q3 := quartiles(xs)
	return metric{Name: d.Name, Unit: d.Unit, Better: d.Better, Clock: d.Clock, Bound: d.Bound, Value: fast(xs), P10: percentile(xs, 10), P25: q1, P50: q2, P75: q3, N: len(xs)}
}

// rate turns a timing into work per second: units / time.
func rate(m metric, units float64) metric {
	// A rate's quantiles mirror its time's: the fast end is the high end.
	m.Value, m.P10, m.P25, m.P50, m.P75 = ratio(units, m.Value), ratio(units, m.P10), ratio(units, m.P75), ratio(units, m.P50), ratio(units, m.P25)
	return m
}

// endToEndMetrics computes the gated metrics from the untraced runner.
func (m *measured) endToEndMetrics() []metric {
	x := m.facade
	out := make([]metric, 0, len(endToEnd))
	for _, d := range endToEnd {
		switch d.Name {
		case "setup_s":
			out = append(out, timing(d, &runner{samples: map[string][]sample{"setup": m.setups}}, "setup", 1))
		case "first_answer_ms":
			out = append(out, timing(d, x, "cold", 1e3))
		case "slider_us":
			out = append(out, timing(d, x, "slider", 1e6))
		case "slider_full_us":
			out = append(out, timing(d, x, "slider_full", 1e6))
		case "batch_scen_per_s":
			out = append(out, rate(timing(d, x, "batch", 1), batchSize))
		case "batch_full_scen_per_s":
			out = append(out, rate(timing(d, x, "batch_full", 1), batchSize))
		case "round_cpu_ms":
			v := m.w.roundSeconds(x, cpuClock) * 1e3
			out = append(out, metric{Name: d.Name, Unit: d.Unit, Better: d.Better, Clock: d.Clock, Bound: d.Bound,
				Value: v, P10: v, P25: v, P50: v, P75: v, N: m.rounds})
		}
	}
	return out
}

// spanIndex answers questions about the traced spans of one run.
type spanIndex struct {
	tr     *tracer
	clock  clock
	opName map[int]string // op id → name of the op's root span
}

func newSpanIndex(tr *tracer, c clock) *spanIndex {
	ix := &spanIndex{tr: tr, clock: c, opName: make(map[int]string)}
	for _, s := range tr.spans {
		if s.Parent == noSpan {
			ix.opName[s.Op] = s.Name
		}
	}
	return ix
}

// each returns the duration in seconds of every span of (layer, name)
// inside operations called op ("" for any).
func (ix *spanIndex) each(op, layer, name string) []float64 {
	var out []float64
	for _, s := range ix.tr.spans {
		if s.Layer == layer && s.Name == name && (op == "" || ix.opName[s.Op] == op) {
			out = append(out, s.duration(ix.clock).Seconds())
		}
	}
	return out
}

// perOp returns, per operation called op, the summed duration in seconds
// of its spans of (layer, name).
func (ix *spanIndex) perOp(op, layer, name string) []float64 {
	sums := make(map[int]float64)
	var order []int
	for _, s := range ix.tr.spans {
		if s.Layer == layer && s.Name == name && ix.opName[s.Op] == op {
			if _, ok := sums[s.Op]; !ok {
				order = append(order, s.Op)
			}
			sums[s.Op] += s.duration(ix.clock).Seconds()
		}
	}
	out := make([]float64, len(order))
	for i, id := range order {
		out[i] = sums[id]
	}
	return out
}

// sumFastest adds the fastest samples of every sample family whose name starts
// with prefix (one family per query of a capture workload).
func sumFastest(x *runner, prefix string, c clock) float64 {
	total := 0.0
	for name, ss := range x.samples {
		if strings.HasPrefix(name, prefix) {
			total += fast(seconds(ss, c))
		}
	}
	return total
}

// perLayerMetrics computes the traced run's metrics. Latencies a user sees
// come from the run's untraced rounds; layer times from spans and probes.
func (m *measured) perLayerMetrics() []metric {
	w, f, t := m.w, m.facade, m.traced
	ix := newSpanIndex(m.tr, w.clock)
	v := make(map[string]float64)
	mons, rows := float64(w.monomials), float64(w.rows)

	v["datagen.generate_s"] = w.laps["generate"].cpu.Seconds()
	v["datagen.instrument_s"] = w.laps["instrument"].cpu.Seconds()
	for name, x := range w.counts {
		v[name] = x
	}

	// sql, engine, provenance: the capture workloads.
	v["sql.parse_us"] = fast(ix.each("cold", "sql", "Parse")) * 1e6
	v["sql.plan_us"] = fast(ix.each("cold", "sql", "Plan")) * 1e6
	v["engine.collect_rows_per_s"] = ratio(rows, fast(ix.perOp("cold", "engine", "Collect")))
	v["engine.concrete_rows_per_s"] = ratio(rows, sumFastest(t, "engine.concrete/", cpuClock))
	v["engine.stream_rows_per_s"] = ratio(rows, sumFastest(t, "engine.stream/", cpuClock))
	v["engine.alloc_bytes_per_row"] = ratio(t.counts["engine.alloc_bytes"], rows)
	v["provenance.symbolic_overhead_ratio"] = ratio(sumFastest(t, "engine.collect/", cpuClock), sumFastest(t, "engine.concrete/", cpuClock))
	v["provenance.from_relation_us"] = fast(ix.perOp("cold", "provenance", "FromRelation")) * 1e6
	v["provenance.capture_stream_rows_per_s"] = ratio(rows, sumFastest(t, "provenance.capture_stream/", cpuClock))
	v["capture_rows_per_s"] = ratio(rows, f.fast("capture", cpuClock))

	// core, abstraction.
	v["core.dp_ms"] = t.fast("core.dp.w1", cpuClock) * 1e3
	v["core.dp_w2_ratio"] = ratio(t.fast("core.dp.w1", wallClock), t.fast("core.dp.w2", wallClock))
	v["core.alloc_bytes_per_monomial"] = t.counts["core.alloc_bytes_per_monomial"]
	v["core.frontier_ms"] = fast(ix.each("frontier", "core", "FrontierSourceN")) * 1e3
	v["core.sweep32_ms"] = t.fast("core.sweep32", cpuClock) * 1e3
	v["core.forest_descent_ms"] = fast(ix.each("forest", "core", "CompressSource")) * 1e3
	v["abstraction.apply_monomials_per_s"] = ratio(mons, t.fast("abstraction.apply.w1", cpuClock))
	v["abstraction.apply_w2_ratio"] = ratio(t.fast("abstraction.apply.w1", wallClock), t.fast("abstraction.apply.w2", wallClock))
	v["compress_monomials_per_s"] = ratio(mons, f.fast("compress", cpuClock))
	v["frontier_ms"] = f.fast("frontier", cpuClock) * 1e3
	v["forest_compress_ms"] = f.fast("forest", cpuClock) * 1e3

	// valuation.
	v["valuation.compile_monomials_per_s"] = ratio(mons, t.fast("valuation.compile", cpuClock))
	v["valuation.eval_ns_per_monomial"] = ratio(t.fast("valuation.eval", cpuClock)*1e9, mons)
	v["valuation.dense_fill_us"] = t.fast("valuation.dense_fill.x100", cpuClock) * 1e6 / 100
	v["valuation.induced_us"] = fast(ix.each("", "valuation", "Induced")) * 1e6
	v["valuation.evalbatch_w1_scen_per_s"] = ratio(batchSize, t.fast("valuation.evalbatch.w1", wallClock))
	v["valuation.batch_w2_ratio"] = ratio(t.fast("valuation.evalbatch.w1", wallClock), t.fast("valuation.evalbatch.w2", wallClock))
	v["valuation.evalbatch_source_scen_per_s"] = ratio(16, t.fast("valuation.evalbatch_source", cpuClock))
	v["valuation.slider_p99_us"] = percentile(seconds(f.samples["slider"], wallClock), 99) * 1e6
	v["valuation.full_over_comp_ratio"] = ratio(f.fast("slider_full", wallClock), f.fast("slider", wallClock))

	// polynomial, polyio, cobra: the out-of-core store.
	v["polynomial.build_sharded_monomials_per_s"] = ratio(mons, fast(ix.each("store_write", "polynomial", "BuildSharded")))
	v["polynomial.materialize_monomials_per_s"] = ratio(mons, t.fast("polynomial.materialize", cpuClock))
	v["polyio.v3_write_monomials_per_s"] = ratio(mons, fast(ix.each("store_write", "polyio", "WriteSetStreamV3")))
	v["polyio.v3_read_monomials_per_s"] = ratio(mons, t.fast("polyio.v3_read.w1", cpuClock))
	v["polyio.v3_read_par_ratio"] = ratio(t.fast("polyio.v3_read.w1", wallClock), t.fast("polyio.v3_read.w2", wallClock))
	v["polyio.text_read_mb_per_s"] = ratio(t.counts["polyio.text_bytes"]/1e6, t.fast("polyio.text_read", cpuClock))
	v["polyio.text_write_mb_per_s"] = ratio(t.counts["polyio.text_bytes"]/1e6, t.fast("polyio.text_write", cpuClock))
	v["store_write_monomials_per_s"] = ratio(mons, f.fast("store_write", cpuClock))
	v["store_read_monomials_per_s"] = ratio(mons, f.fast("store_read", cpuClock))
	v["disk_bytes_per_monomial"] = ratio(w.counts["polyio.v3_bytes"], mons)
	v["cobra.dataset_open_us"] = fast(ix.each("", "cobra", "OpenDataset")) * 1e6
	v["cobra.memo_hit_us"] = t.fast("cobra.memo_hit.x100", cpuClock) * 1e6 / 100
	v["cobra.evict_ms"] = f.fast("evict.persist", cpuClock) * 1e3
	v["cobra.reload_ms"] = fast(ix.each("evict", "polyio", "OpenIndexedFile")) * 1e3

	// serve.
	v["serve.overhead_us"] = (t.fast("serve.http_eval", wallClock) - t.fast("serve.direct_eval", wallClock)) * 1e6
	if w.clock == wallClock {
		v["serve_eval_p50_ms"] = f.p50("mix_eval", wallClock) * 1e3
		v["serve.eval_p99_ms"] = percentile(seconds(f.samples["mix_eval"], wallClock), 99) * 1e3
		v["serve_cpu_us_per_req"] = f.fast("mix_block", cpuClock) * 1e6 / blockRequests
	}
	v["serve.sweep_p50_ms"] = f.p50("mix_sweep", wallClock) * 1e3
	v["serve.register_p50_ms"] = f.p50("mix_register", wallClock) * 1e3
	v["serve.resp_bytes_per_req"] = ratio(t.counts["serve.resp_bytes"], t.counts["serve.resp_requests"])
	if w.clock == wallClock {
		v["serve.errors"] = float64(f.failed + t.failed)
	}

	// trace: does the decomposition add up to what the facade costs? Each
	// traced round is set against the untraced round run just before it, so
	// a slow spell of the machine falls on both; the median over the pairs.
	v["trace.coverage_pct"] = median(m.coverage)
	v["trace.overhead_pct"] = median(m.overhead)
	v["cobra.facade_overhead_pct"] = 100 * (ratio(100, v["trace.coverage_pct"]) - 1)

	self := m.tr.selfTimes(w.clock)
	total := 0.0
	for i, s := range m.tr.spans {
		if s.Layer != rootLayer {
			total += self[i].Seconds()
		}
	}
	for i, s := range m.tr.spans {
		if share, ok := layerGroups[s.Layer]; ok {
			v[share] += 100 * ratio(self[i].Seconds(), total)
		}
	}

	out := make([]metric, len(perLayer))
	for i, d := range perLayer {
		x := v[d.Name]
		out[i] = metric{Name: d.Name, Unit: d.Unit, Better: d.Better, Clock: d.Clock, Value: x, P10: x, P25: x, P50: x, P75: x}
	}
	return out
}
