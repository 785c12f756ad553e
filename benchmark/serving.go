package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"

	cobra "github.com/cobra-prov/cobra"
	"github.com/cobra-prov/cobra/internal/datagen/telephony"
	"github.com/cobra-prov/cobra/internal/polyio"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/valuation"
	"github.com/cobra-prov/cobra/serve"
)

const (
	// blockRequests is the size of one block of mixed traffic; process CPU
	// is sampled per block because concurrent requests share that clock.
	blockRequests = 500
	clients       = 2
	// spanHeader carries the client's span id, so the server-side span of a
	// request hangs under the span of the client that sent it.
	spanHeader = "X-Bench-Span"
)

// serving is the serve_mixed workload: an in-process cobra-serve holding
// the paper-scale telephony dataset, full (the target of sweeps) and
// compressed (the target of evals), driven over loopback HTTP.
type serving struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	tr     *tracer // nil unless the run is traced; fixed before the server starts

	comp     *cobra.Dataset // owned by the server's registry
	q        *whatif
	compWant [][]float64 // direct Dataset.EvalBatch answers of the induced sliders
	bounds   [][]int     // pooled sweep requests, 8 bounds each
	seed     int64

	// The small dataset registered and deleted beside the read traffic.
	register  []byte // PUT body: text provenance + tree JSON
	smallText string
	smallSet  *polynomial.Set
	smallEval []byte // eval request for the small dataset
	smallWant []float64
	smallScen *valuation.Assignment

	respMu       sync.Mutex
	respBytes    int64 // guarded by respMu
	respRequests int64 // guarded by respMu
}

// do sends one request and returns status and body. parent, when a span,
// travels in a header for the server-side middleware.
func (s *serving) do(method, path string, body []byte, parent int) (int, []byte, error) {
	req, err := http.NewRequest(method, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if parent != noSpan {
		req.Header.Set(spanHeader, strconv.Itoa(parent))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// spans wraps the server's handler so each request that names a parent
// span records its time inside the serve layer. Untraced requests carry no
// header, so they pass straight through even in a traced run.
func (s *serving) spans(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil || s.tr == nil {
			next.ServeHTTP(w, r)
			return
		}
		sp := s.tr.begin(parent, "serve", r.Method+" "+r.URL.Path)
		next.ServeHTTP(w, r)
		s.tr.end(sp, 1)
	})
}

func evalBody(as []*valuation.Assignment, workers int) ([]byte, error) {
	req := serve.EvalRequest{Workers: workers}
	for _, a := range as {
		vals := make(map[string]float64, a.Len())
		for _, it := range a.Items() {
			vals[it.Name] = it.Value
		}
		req.Assignments = append(req.Assignments, vals)
	}
	return json.Marshal(req)
}

// post evaluates scenarios on a named dataset over HTTP.
func (s *serving) post(name string, parent, workers int, as []*valuation.Assignment) ([][]float64, int, error) {
	body, err := evalBody(as, workers)
	if err != nil {
		return nil, 0, err
	}
	status, data, err := s.do("POST", "/v1/datasets/"+name+"/eval", body, parent)
	if err != nil {
		return nil, 0, err
	}
	if status != http.StatusOK {
		return nil, len(data), fmt.Errorf("eval on %s: status %d: %s", name, status, data)
	}
	var resp serve.EvalResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, len(data), err
	}
	return resp.Rows, len(data), nil
}

// httpEval is the evalFn of a dataset behind the server. Traced or not,
// the request takes the same route; tracing adds the client span.
func (s *serving) httpEval(name string) evalFn {
	return func(tr *tracer, parent, workers int, as []*valuation.Assignment) ([][]float64, error) {
		sp := tr.begin(parent, "net/http", "POST eval")
		rows, _, err := s.post(name, sp, workers, as)
		tr.end(sp, len(as))
		return rows, err
	}
}

// request is one entry of a client's seeded script.
type request struct {
	kind  string // "mix_eval", "mix_sweep" or "mix_register"
	index int    // which pooled scenario or bound set
}

// script draws a client's requests for one block: 94 % single-scenario
// evals, 5 % eight-bound sweeps, 1 % register-and-delete.
func (s *serving) script(block, client int) []request {
	r := rand.New(rand.NewSource(s.seed + int64(block)*131 + int64(client)*7919))
	out := make([]request, blockRequests/clients)
	for i := range out {
		switch p := r.Intn(100); {
		case p < 94:
			out[i] = request{"mix_eval", r.Intn(len(s.q.sliders))}
		case p < 99:
			out[i] = request{"mix_sweep", r.Intn(len(s.bounds))}
		default:
			out[i] = request{"mix_register", 0}
		}
	}
	return out
}

// outcome is what one scripted request produced.
type outcome struct {
	kind string
	s    sample
	err  error
}

// issue performs one scripted request as client c; the answer is checked
// after the clock stops.
func (s *serving) issue(tr *tracer, c int, rq request) outcome {
	root := tr.beginOp(rq.kind)
	sw := startWatch()
	var (
		err    error
		size   int
		verify func() error
	)
	switch rq.kind {
	case "mix_eval":
		sp := tr.begin(root, "valuation", "Induced")
		a := valuation.Induced(s.q.sliders[rq.index], s.q.cuts...)
		tr.end(sp, a.Len())
		sp = tr.begin(root, "net/http", "POST eval")
		var rows [][]float64
		rows, size, err = s.post("comp", sp, 1, []*valuation.Assignment{a})
		tr.end(sp, 1)
		verify = func() error { return checkRows(rows, s.compWant[rq.index:rq.index+1], 0) }
	case "mix_sweep":
		sp := tr.begin(root, "net/http", "POST sweep")
		err = s.sweep(sp, s.bounds[rq.index], &size)
		tr.end(sp, 1)
	case "mix_register":
		sp := tr.begin(root, "net/http", "PUT+DELETE dataset")
		err = s.registerAndDelete(sp, fmt.Sprintf("tmp-%d", c), &size)
		tr.end(sp, 1)
	}
	out := outcome{kind: rq.kind, s: sw.stop(), err: err}
	tr.end(root, 0)
	if out.err == nil && verify != nil {
		out.err = verify()
	}
	s.respMu.Lock()
	s.respBytes += int64(size)
	s.respRequests++
	s.respMu.Unlock()
	return out
}

func (s *serving) sweep(parent int, bounds []int, size *int) error {
	body, err := json.Marshal(serve.SweepRequest{Bounds: bounds})
	if err != nil {
		return err
	}
	status, data, err := s.do("POST", "/v1/datasets/full/sweep", body, parent)
	*size = len(data)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("sweep: status %d: %s", status, data)
	}
	var resp serve.SweepResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return err
	}
	if len(resp.Answers) != len(bounds) {
		return fmt.Errorf("sweep: %d answers for %d bounds", len(resp.Answers), len(bounds))
	}
	for i, a := range resp.Answers {
		if a.Result == nil || a.Result.Size > bounds[i] {
			return fmt.Errorf("sweep: bound %d answered %+v", bounds[i], a)
		}
	}
	return nil
}

func (s *serving) registerAndDelete(parent int, name string, size *int) error {
	status, data, err := s.do("PUT", "/v1/datasets/"+name, s.register, parent)
	*size = len(data)
	if err != nil {
		return err
	}
	if status != http.StatusCreated {
		return fmt.Errorf("register %s: status %d: %s", name, status, data)
	}
	status, data, err = s.do("DELETE", "/v1/datasets/"+name, nil, parent)
	if err != nil {
		return err
	}
	if status != http.StatusNoContent {
		return fmt.Errorf("delete %s: status %d: %s", name, status, data)
	}
	return nil
}

// mixBlock runs one block of mixed traffic: two closed-loop clients, each
// waiting for a reply before its next request, as analysts do. It reports
// (latency under load, CPU per request, errors) but gates nothing: with two
// clients and the server's goroutines busy at once its times follow the
// sandbox's supply of a second CPU - over ten runs the eval latency in the
// mix spread 17 % and the block's CPU 20 %. The gated phases below drive
// the same server with one client.
func (s *serving) mixBlock(x *runner, block int) {
	results := make([][]outcome, clients)
	onTwoCPUs(func() {
		var wg sync.WaitGroup
		sw := startWatch()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			//cobra:goroutine one closed-loop client of the serve_mixed workload; the block waits for both on wg
			go func(c int) {
				defer wg.Done()
				for _, rq := range s.script(block, c) {
					results[c] = append(results[c], s.issue(x.tr, c, rq))
				}
			}(c)
		}
		wg.Wait()
		x.part("mix_block", sw.stop())
	})
	for _, rs := range results {
		for _, o := range rs {
			x.record(o.kind, o.s, o.err)
		}
	}
}

// cold registers a small dataset from text, asks it one what-if question
// and deletes it: the path a new analyst's first upload takes.
func (s *serving) cold(x *runner, _ int) {
	x.timed("cold", func(root int) (func() error, error) {
		const path = "/v1/datasets/tmp-cold"
		sp := x.tr.begin(root, "net/http", "PUT dataset")
		status, data, err := s.do("PUT", path, s.register, sp)
		x.tr.end(sp, len(s.register))
		if err != nil {
			return nil, err
		}
		if status != http.StatusCreated {
			return nil, fmt.Errorf("register: status %d: %s", status, data)
		}
		sp = x.tr.begin(root, "net/http", "POST eval")
		status, data, err = s.do("POST", path+"/eval", s.smallEval, sp)
		x.tr.end(sp, 1)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("eval: status %d: %s", status, data)
		}
		sp = x.tr.begin(root, "net/http", "DELETE dataset")
		status, _, err = s.do("DELETE", path, nil, sp)
		x.tr.end(sp, 1)
		if err != nil {
			return nil, err
		}
		if status != http.StatusNoContent {
			return nil, fmt.Errorf("delete: status %d", status)
		}
		return func() error {
			var resp serve.EvalResponse
			if err := json.Unmarshal(data, &resp); err != nil {
				return err
			}
			return checkRows(resp.Rows, [][]float64{s.smallWant}, 0)
		}, nil
	})
}

func (s *serving) close() {
	s.ts.Close()
	s.srv.Close()
}

// buildServing sets up serve_mixed.
func buildServing(name string, seed int64, sc scale, tr *tracer) (*workload, error) {
	w := newWorkload(name)
	w.clock = wallClock
	customers, smallCustomers := 1_000_000, 5_000
	if sc == smoke {
		customers, smallCustomers = 20_000, 1_000
	}
	sw := startWatch()
	names := polynomial.NewNames()
	set := telephony.DirectProvenance(telephony.Config{Customers: customers}, names)
	tree := telephony.PlansTree(names)
	s := &serving{seed: seed, tr: tr}
	smallNames := polynomial.NewNames()
	s.smallSet = telephony.DirectProvenance(telephony.Config{Customers: smallCustomers}, smallNames)
	var text strings.Builder
	if err := polyio.WriteSetText(&text, s.smallSet); err != nil {
		return nil, err
	}
	s.smallText = text.String()
	treeJSON, err := json.Marshal(telephony.PlansTree(smallNames))
	if err != nil {
		return nil, err
	}
	if s.register, err = json.Marshal(serve.RegisterRequest{Provenance: s.smallText, Trees: []json.RawMessage{treeJSON}}); err != nil {
		return nil, err
	}
	w.lap("generate", sw)

	t, err := warmUp(name, set, tree, set.Size()/3, false)
	if err != nil {
		return nil, err
	}
	s.comp = t.comp
	s.srv = serve.New(serve.Config{MaxWorkers: clients, SpillDir: tmpDir})
	for dsName, ds := range map[string]*cobra.Dataset{"comp": t.comp, "full": t.full} {
		if err := s.srv.Register(dsName, ds); err != nil {
			s.srv.Close()
			return nil, err
		}
	}
	s.ts = httptest.NewServer(s.spans(s.srv.Handler()))
	s.client = s.ts.Client()
	w.close = s.close

	r := rand.New(rand.NewSource(seed))
	s.q = t.whatif(r, sc, true)
	s.q.comp, s.q.full = s.httpEval("comp"), s.httpEval("full")
	floor := rootCutSize(set, tree)
	for i := 0; i < 16; i++ {
		s.bounds = append(s.bounds, uniformBounds(r, 8, floor, set.Size()))
	}
	// One sweep before measuring: the curve behind every later sweep is
	// memoized, as it is on a daemon that has been up for a while.
	var size int
	if err := s.sweep(noSpan, s.bounds[0], &size); err != nil {
		s.close()
		return nil, err
	}
	s.smallScen = sparseScenario(r, smallNames, rootChildGroups(cobra.Forest{telephony.PlansTree(smallNames)}))
	if s.smallEval, err = evalBody([]*valuation.Assignment{s.smallScen}, 1); err != nil {
		s.close()
		return nil, err
	}

	w.monomials = set.Size()
	cutCounts(w.counts, t.res)
	w.prepare = func(*runner) error {
		// The server parses the text form, which rounds coefficients: the
		// direct answer it must reproduce is the parsed set's.
		parsedNames := polynomial.NewNames()
		parsed, err := polyio.ReadSetText(strings.NewReader(s.smallText), parsedNames)
		if err != nil {
			return err
		}
		scen := valuation.New(parsedNames)
		for _, it := range s.smallScen.Items() {
			if err := scen.Set(it.Name, it.Value); err != nil {
				return err
			}
		}
		s.smallWant = valuation.Compile(parsed).EvalBatchN([]*valuation.Assignment{scen}, nil, 1)[0]
		for _, a := range s.q.sliders {
			rows, err := s.comp.EvalBatch(ctx, []*valuation.Assignment{valuation.Induced(a, s.q.cuts...)})
			if err != nil {
				return err
			}
			s.compWant = append(s.compWant, rows[0])
		}
		if err := s.q.prepare(w, set); err != nil {
			return err
		}
		return checkRows(s.compWant, s.q.sliderWant, answerTolerance)
	}
	w.probes = func(x *runner) { s.probes(x) }
	w.phases = append([]phase{
		{name: "mix", perRound: 1, ungated: true, run: s.mixBlock},
		{name: "cold", perRound: 40, run: s.cold},
	}, s.q.phases(w, mix{sliderPasses: 4, sliderFullPasses: 2, batch: 3, batchFull: 2})...)
	return w, nil
}

// probes isolates what the serve layer adds: the same scenarios answered
// over HTTP by one client and by calling the Dataset directly, plus the
// text codec the register path parses with.
func (s *serving) probes(x *runner) {
	for i := 0; i < 100; i++ {
		a := valuation.Induced(s.q.sliders[i%len(s.q.sliders)], s.q.cuts...)
		as := []*valuation.Assignment{a}
		sw := startWatch()
		_, _, err := s.post("comp", noSpan, 1, as)
		x.part("serve.http_eval", sw.stop())
		if err != nil {
			x.fail("probe serve.http_eval", err)
		}
		sw = startWatch()
		_, err = s.comp.EvalBatch(ctx, as)
		x.part("serve.direct_eval", sw.stop())
		if err != nil {
			x.fail("probe serve.direct_eval", err)
		}
	}
	x.probe("polyio.text_read", 10, func() {
		if _, err := polyio.ReadSetText(strings.NewReader(s.smallText), polynomial.NewNames()); err != nil {
			x.fail("probe polyio.text_read", err)
		}
	})
	x.probe("polyio.text_write", 10, func() {
		if err := polyio.WriteSetText(io.Discard, s.smallSet); err != nil {
			x.fail("probe polyio.text_write", err)
		}
	})
	x.counts["polyio.text_bytes"] = float64(len(s.smallText))
	s.respMu.Lock()
	x.counts["serve.resp_bytes"] = float64(s.respBytes)
	x.counts["serve.resp_requests"] = float64(s.respRequests)
	s.respMu.Unlock()
}
