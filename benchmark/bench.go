package main

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// ctx is the benchmark's root context: nothing cancels a measurement.
//
//cobra:ctx the benchmark binary owns its lifetime; there is no caller to inherit a context from
var ctx = context.Background()

// scale selects instance sizes: full is what BENCHMARK.json measures,
// smoke is the same code on inputs small enough for `go test`.
type scale int

const (
	full scale = iota
	smoke
)

// onTwoCPUs runs f with two Ps (one on a single-CPU machine) and restores
// the process's single P afterwards. Only ungated measurements use it.
func onTwoCPUs(f func()) {
	prev := runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	defer runtime.GOMAXPROCS(prev)
	f()
}

// batchSize is the number of dense scenarios in one batch call.
const batchSize = 64

// phase is one kind of operation inside a workload's round. run performs
// the i-th operation of the phase through x (x.tr != nil selects the
// decomposed, traced form of the same work).
type phase struct {
	name     string
	perRound int
	run      func(x *runner, i int)
	// heavy marks operations that allocate enough to trigger collections of
	// their own: each starts from a freshly collected heap, so the number of
	// collections it triggers, which are on its clock, repeats from op to op.
	// The forced collection before it is on no one's clock.
	heavy bool
	// ungated phases run and report, but stay out of round_cpu_ms: their
	// cost does not repeat from run to run (concurrent clients).
	ungated bool
}

// workload is one set of inputs, ready to measure.
type workload struct {
	name      string
	monomials int   // input monomials: the denominator of per-monomial rates
	rows      int   // base-relation rows one capture scans (capture workloads)
	clock     clock // clock span times are read on: cpu unless requests overlap
	phases    []phase
	// prepare computes the expected answers the checks compare against; it
	// runs once, off the clock.
	prepare func(x *runner) error
	// probes measures single layers in isolation; traced runs only.
	probes func(x *runner)
	// passes gives, per sample name, how many consecutive operations make
	// one pass over a seeded pool of unequal inputs (sparse scenarios touch
	// one to three groups of unequal size). Statistics of such a name are
	// taken over per-pass means, so every value covers the same inputs.
	passes map[string]int
	// counts holds exact counts (monomials out, cut size, bytes written).
	counts map[string]float64
	// laps holds the named parts of set-up (datagen, instrumentation).
	laps  map[string]sample
	close func()
}

func newWorkload(name string) *workload {
	return &workload{name: name, passes: make(map[string]int), counts: make(map[string]float64), laps: make(map[string]sample), close: func() {}}
}

// lap books a named part of set-up; parts of the same name add up.
func (w *workload) lap(name string, sw stopwatch) {
	s, prev := sw.stop(), w.laps[name]
	w.laps[name] = sample{wall: prev.wall + s.wall, cpu: prev.cpu + s.cpu}
}

// runner executes operations, keeps their per-op samples and counts
// failures. A failed operation is counted and leaves no sample.
type runner struct {
	tr       *tracer
	samples  map[string][]sample
	ops      int
	failed   int
	failures []string      // the first few failure messages, for the report
	wall     time.Duration // summed over every successful operation
	// counts holds what probes count instead of time (bytes allocated).
	counts map[string]float64
	passes map[string]int // the workload's; see workload.passes
}

func newRunner(tr *tracer, passes map[string]int) *runner {
	return &runner{tr: tr, passes: passes, samples: make(map[string][]sample), counts: make(map[string]float64)}
}

// timed runs one operation on the clock. f does the work, opening spans
// under root when traced, and returns a verifier that runs off the clock.
func (x *runner) timed(name string, f func(root int) (verify func() error, err error)) {
	root := x.tr.beginOp(name)
	sw := startWatch()
	verify, err := f(root)
	s := sw.stop()
	x.tr.end(root, 0)
	if err == nil && verify != nil {
		err = verify()
	}
	x.record(name, s, err)
}

// record books an operation timed by the caller.
func (x *runner) record(name string, s sample, err error) {
	x.ops++
	if err != nil {
		x.failed++
		if len(x.failures) < 5 {
			x.failures = append(x.failures, fmt.Sprintf("%s: %v", name, err))
		}
		return
	}
	x.samples[name] = append(x.samples[name], s)
	x.wall += s.wall
}

// fail books a failed operation that has no sample to withhold.
func (x *runner) fail(name string, err error) { x.record(name, sample{}, err) }

// probe times f alone, n times, as samples that are not operations.
func (x *runner) probe(name string, n int, f func()) {
	for i := 0; i < n; i++ {
		sw := startWatch()
		f()
		x.part(name, sw.stop())
	}
}

// part books a timed part of an operation: a sample, not an operation.
func (x *runner) part(name string, s sample) {
	x.samples[name] = append(x.samples[name], s)
}

// series returns an operation's samples on a clock, in seconds: one value
// per operation, or per pass over the pool for names the workload lists.
func (x *runner) series(name string, c clock) []float64 {
	return passMeans(seconds(x.samples[name], c), x.passes[name])
}

// passMeans averages consecutive groups of n values; n <= 1 keeps them.
func passMeans(xs []float64, n int) []float64 {
	if n <= 1 {
		return xs
	}
	means := make([]float64, 0, len(xs)/n)
	for lo := 0; lo+n <= len(xs); lo += n {
		sum := 0.0
		for _, v := range xs[lo : lo+n] {
			sum += v
		}
		means = append(means, sum/float64(n))
	}
	return means
}

// p50 is the median of an operation's series, in seconds.
func (x *runner) p50(name string, c clock) float64 { return median(x.series(name, c)) }

// fast is the fastest sample of an operation's series, in seconds.
func (x *runner) fast(name string, c clock) float64 { return fast(x.series(name, c)) }

// round runs every phase of the workload once. Heavy operations, and
// phases of light ones, start from a collected heap, so the garbage of one
// is not collected on the clock of the next.
func (w *workload) round(x *runner, n int) {
	collected := false
	collect := func() {
		if !collected {
			runtime.GC()
			collected = true
		}
	}
	for _, p := range w.phases {
		for j := 0; j < p.perRound; j++ {
			if p.heavy || j == 0 {
				collect()
			}
			p.run(x, n*p.perRound+j)
			collected = false
		}
	}
}

// roundSeconds composes the cost of one round from per-op samples: the sum
// over phases of ops per round times the fastest-sample cost of one op.
func (w *workload) roundSeconds(x *runner, c clock) float64 {
	total := 0.0
	for _, p := range w.phases {
		if !p.ungated {
			total += float64(p.perRound) * x.fast(p.name, c)
		}
	}
	return total
}

// measured is everything one run of one workload produced.
type measured struct {
	w      *workload
	setups []sample
	facade *runner // the program's public entry points, untraced
	traced *runner // the same work decomposed into layer calls, with spans
	tr     *tracer
	window time.Duration
	rounds int
	// Per pair of adjacent rounds of a traced run, against what the
	// untraced round's operations took: what the traced round's layer
	// spans account for, and what its whole operations took.
	coverage, overhead []float64
}

// measure sets the workload up (five times: setup_s is the fastest),
// then runs rounds for the given duration. A traced run alternates
// untraced and traced rounds, so both see the same machine.
func measure(name string, seed int64, sc scale, d time.Duration, traced bool) (*measured, error) {
	// One process on one CPU. Everything gated is single-threaded work, and
	// on one P the collector and a request's goroutines take turns with it
	// instead of depending on a second CPU the sandbox supplies only some of
	// the time (README.md, "Clocks"). The ungated two-worker probes and the
	// two-client traffic block raise this for their own duration.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	setups := 5
	if sc == smoke {
		setups = 1
	}
	m := &measured{tr: tr}
	for i := 0; i < setups; i++ {
		if m.w != nil {
			m.w.close()
		}
		runtime.GC()
		sw := startWatch()
		w, err := build(name, seed, sc, tr)
		if err != nil {
			return nil, fmt.Errorf("setting up %s: %w", name, err)
		}
		m.setups = append(m.setups, sw.stop())
		m.w = w
	}
	m.facade = newRunner(nil, m.w.passes)
	if traced {
		m.traced = newRunner(tr, m.w.passes)
	}
	if err := m.w.prepare(m.facade); err != nil {
		m.w.close()
		return nil, fmt.Errorf("preparing checks for %s: %w", name, err)
	}
	runtime.GC()
	start := time.Now()
	for ; m.rounds == 0 || time.Since(start) < d; m.rounds++ {
		before := m.facade.wall
		m.w.round(m.facade, m.rounds)
		if traced {
			first := len(tr.spans)
			m.w.round(m.traced, m.rounds)
			layers, whole := tr.composed(first)
			plain := (m.facade.wall - before).Seconds()
			m.coverage = append(m.coverage, 100*ratio(layers.Seconds(), plain))
			m.overhead = append(m.overhead, 100*(ratio(whole.Seconds(), plain)-1))
		}
	}
	m.window = time.Since(start)
	if traced && m.w.probes != nil {
		m.w.probes(m.traced)
	}
	return m, nil
}
