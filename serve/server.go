package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"

	cobra "github.com/cobra-prov/cobra"
	"github.com/cobra-prov/cobra/internal/datagen/telephony"
)

// Config tunes the server.
type Config struct {
	// MaxWorkers is the solver worker pool shared by all requests: each
	// request's Workers budget is clamped to it and drawn from it, so
	// concurrent traffic cannot oversubscribe the machine. <= 0 selects
	// cobra.AutoWorkers().
	MaxWorkers int
	// MaxResidentDatasets bounds how many out-of-core datasets keep
	// un-spilled shards in memory between requests; least-recently-used
	// ones beyond it are evicted — every shard spilled — and go on
	// answering from their spill files. Eviction is one-way: an evicted
	// dataset never counts against the bound again. <= 0 means unlimited.
	MaxResidentDatasets int
	// SpillDir is where out-of-core state lives ("" = os.TempDir()).
	SpillDir string
}

// Server is the cobra-serve daemon: an http.Handler over a registry of
// named immutable cobra.Dataset handles, with background capture/compress
// jobs, request-scoped worker budgeting, LRU eviction for out-of-core
// datasets, and graceful shutdown via Close. Solver handlers run on the
// request context, so a disconnected client cancels its in-flight solve.
type Server struct {
	cfg  Config
	reg  *registry
	jobs *jobs
	mux  *http.ServeMux

	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	// Worker pool: gate holds MaxWorkers tokens; a request acquires its
	// whole budget under acqMu (all-or-nothing in FIFO order, so two
	// half-acquired requests can never deadlock each other).
	acqMu sync.Mutex
	gate  chan struct{}
}

// New builds a Server. Release it with Close.
func New(cfg Config) *Server {
	if cfg.MaxWorkers <= 0 {
		cfg.MaxWorkers = cobra.AutoWorkers()
	}
	//cobra:ctx deliberate lifecycle root: the server owns its base context; Close cancels it
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		reg:     newRegistry(cfg.MaxResidentDatasets),
		jobs:    newJobs(),
		mux:     http.NewServeMux(),
		baseCtx: ctx,
		cancel:  cancel,
		gate:    make(chan struct{}, cfg.MaxWorkers),
	}
	for i := 0; i < cfg.MaxWorkers; i++ {
		s.gate <- struct{}{}
	}
	s.routes()
	return s
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/datasets", s.handleList)
	s.mux.HandleFunc("PUT /v1/datasets/{name}", s.handleRegister)
	s.mux.HandleFunc("GET /v1/datasets/{name}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/datasets/{name}", s.handleDelete)
	s.mux.HandleFunc("POST /v1/datasets/{name}/capture", s.handleCapture)
	s.mux.HandleFunc("POST /v1/datasets/{name}/compress", s.handleCompress)
	s.mux.HandleFunc("POST /v1/datasets/{name}/eval", s.handleEval)
	s.mux.HandleFunc("POST /v1/datasets/{name}/sweep", s.handleSweep)
	s.mux.HandleFunc("GET /v1/datasets/{name}/frontier", s.handleFrontier)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Register adds an already-built dataset to the server — the embedding
// entry point for tests and custom daemons.
func (s *Server) Register(name string, ds *cobra.Dataset) error {
	return s.reg.put(name, ds)
}

// Close shuts the server down: background jobs are canceled and awaited,
// then every dataset is released. Call after the http.Server has stopped
// accepting requests.
func (s *Server) Close() error {
	s.cancel()
	s.wg.Wait()
	s.reg.closeAll()
	return nil
}

// clampWorkers resolves a request's worker budget: at least 1, at most
// the server pool.
func (s *Server) clampWorkers(n int) int {
	if n <= 1 {
		return 1
	}
	if n > s.cfg.MaxWorkers {
		return s.cfg.MaxWorkers
	}
	return n
}

// acquireWorkers draws n tokens from the pool, honoring ctx; the returned
// release must be called when the solve is done. Acquisition is
// all-or-nothing under acqMu: requests line up FIFO and partial holds are
// returned on cancellation, so the pool cannot deadlock.
func (s *Server) acquireWorkers(ctx context.Context, n int) (func(), error) {
	s.acqMu.Lock()
	for i := 0; i < n; i++ {
		select {
		case <-s.gate:
		case <-ctx.Done():
			for j := 0; j < i; j++ {
				s.gate <- struct{}{}
			}
			s.acqMu.Unlock()
			return nil, ctx.Err()
		}
	}
	s.acqMu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			for i := 0; i < n; i++ {
				s.gate <- struct{}{}
			}
		})
	}, nil
}

// --- helpers -------------------------------------------------------------

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// Request-body caps: a body is untrusted input, so no handler reads one
// without a bound. Both sit far above real traffic — paper-scale telephony
// provenance (139k monomials) is ≈ 4 MB of text, a 1000-scenario eval
// ≈ 300 kB.
const (
	// maxRegisterBody caps a register body: serialized provenance and trees.
	maxRegisterBody = 64 << 20
	// maxRequestBody caps every other body: assignments, bounds, job
	// parameters.
	maxRequestBody = 8 << 20
)

// Work caps: the byte caps bound what a request may send, these bound what
// it may ask for. An eval answers assignments × polynomials float64s, so a
// 3 MB body of a million empty assignments asks for a gigabyte of rows; both
// sit far above real traffic (a 64-scenario batch over paper-scale
// telephony is 67 520 cells, a bound slider sends a handful of bounds).
const (
	// maxEvalCells caps assignments × polynomials of one eval request.
	maxEvalCells = 1 << 22
	// maxBoundsPerSweep caps the bounds of one sweep request.
	maxBoundsPerSweep = 4096
)

// evalCapError reports an eval request over maxEvalCells.
type evalCapError struct{ polys int }

func (e evalCapError) Error() string {
	return fmt.Sprintf("assignments x %d polynomials exceeds %d result cells per request", e.polys, maxEvalCells)
}

// decodeBody runs decode over a request body of at most limit bytes,
// answering 413 for an overrun of the byte cap or the eval cell cap and 400
// for anything else it cannot decode.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, decode func(*json.Decoder) error) bool {
	err := decode(json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)))
	var tooBig *http.MaxBytesError
	var tooMuch evalCapError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
	case errors.As(err, &tooMuch):
		writeErr(w, http.StatusRequestEntityTooLarge, "%v", tooMuch)
	default:
		writeErr(w, http.StatusBadRequest, "decoding request: %v", err)
	}
	return false
}

// decodeJSON decodes a request body of at most limit bytes into v.
func decodeJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	return decodeBody(w, r, limit, func(dec *json.Decoder) error {
		dec.DisallowUnknownFields()
		return dec.Decode(v)
	})
}

// decodeEval reads an EvalRequest member by member and assignment by
// assignment, and fails with an evalCapError at the first assignment whose
// row would take the response past maxEvalCells. The count cannot wait for
// the decoded slice: decoding a 3 MB body of a million `{}` whole builds a
// million maps (101 MB) before anything can look at its length. Members
// match as encoding/json matches them (case folded, unknown ones refused,
// null leaves the field alone).
func decodeEval(dec *json.Decoder, polys int, req *EvalRequest) error {
	tok, err := dec.Token()
	if err != nil || tok == nil {
		return err
	}
	if tok != json.Delim('{') {
		return errors.New("json: want an object")
	}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return err
		}
		switch name := key.(string); { // a member name: Token refuses anything else here
		case strings.EqualFold(name, "workers"):
			err = dec.Decode(&req.Workers)
		case strings.EqualFold(name, "assignments"):
			err = decodeAssignments(dec, polys, &req.Assignments)
		default:
			err = fmt.Errorf("json: unknown field %q", name)
		}
		if err != nil {
			return err
		}
	}
	_, err = dec.Token() // the closing }
	return err
}

func decodeAssignments(dec *json.Decoder, polys int, list *[]map[string]float64) error {
	tok, err := dec.Token()
	if err != nil || tok == nil {
		return err
	}
	if tok != json.Delim('[') {
		return errors.New("json: assignments: want an array")
	}
	*list = []map[string]float64{}
	for dec.More() {
		if (len(*list)+1)*polys > maxEvalCells {
			return evalCapError{polys}
		}
		var vals map[string]float64
		if err := dec.Decode(&vals); err != nil {
			return err
		}
		*list = append(*list, vals)
	}
	_, err = dec.Token() // the closing ]
	return err
}

// writeSolveErr maps a solver error to a status: client cancellations get
// 499 (client closed request), infeasibility and bad input get 400,
// anything else 500.
func writeSolveErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		writeErr(w, 499, "%v", err)
	case errors.Is(err, cobra.ErrInfeasible):
		writeErr(w, http.StatusBadRequest, "%v", err)
	default:
		writeErr(w, http.StatusInternalServerError, "%v", err)
	}
}

func (s *Server) dataset(w http.ResponseWriter, r *http.Request) (*cobra.Dataset, string, bool) {
	name := r.PathValue("name")
	ds, ok := s.reg.get(name)
	if !ok {
		writeErr(w, http.StatusNotFound, "dataset %q not found", name)
		return nil, name, false
	}
	return ds, name, true
}

func compressResult(bound int, res *cobra.Result) *CompressResult {
	cuts := make([][]string, len(res.Cuts))
	for i, c := range res.Cuts {
		cuts[i] = c.Names()
	}
	return &CompressResult{
		Bound:        bound,
		Size:         res.Size,
		NumMeta:      res.NumMeta,
		UsedMeta:     res.UsedMeta,
		OriginalSize: res.OriginalSize,
		OriginalVars: res.OriginalVars,
		Cuts:         cuts,
	}
}

// --- handlers ------------------------------------------------------------

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, DatasetsResponse{Datasets: s.reg.infos()})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	ds, name, ok := s.dataset(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, datasetInfo(name, ds))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.reg.remove(name); err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req RegisterRequest
	if !decodeJSON(w, r, maxRegisterBody, &req) {
		return
	}
	names := cobra.NewNames()
	set, _, err := cobra.ReadSet(strings.NewReader(req.Provenance), names)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "parsing provenance: %v", err)
		return
	}
	trees := make(cobra.Forest, len(req.Trees))
	for i, raw := range req.Trees {
		t, err := cobra.TreeFromJSON(raw, names)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "parsing tree %d: %v", i, err)
			return
		}
		trees[i] = t
	}
	// OpenDataset shards the set under a budget; with a non-nil source,
	// writing that ShardedSet's spill file is all that can fail.
	opts := cobra.Options{MaxResidentMonomials: req.MaxResidentMonomials, SpillDir: s.cfg.SpillDir}
	ds, err := cobra.OpenDataset(name, set, trees, opts)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if err := s.reg.put(name, ds); err != nil {
		ds.Close()
		writeErr(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, datasetInfo(name, ds))
}

func (s *Server) handleCapture(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req CaptureRequest
	if !decodeJSON(w, r, maxRequestBody, &req) {
		return
	}
	switch req.Generator {
	case "figure1", "telephony":
	default:
		writeErr(w, http.StatusBadRequest, "unknown generator %q (want \"figure1\" or \"telephony\")", req.Generator)
		return
	}
	if _, ok := s.reg.get(name); ok {
		writeErr(w, http.StatusConflict, "dataset %q already exists", name)
		return
	}
	opts := cobra.Options{
		Workers:              s.cfg.MaxWorkers,
		MaxResidentMonomials: req.MaxResidentMonomials,
		SpillDir:             s.cfg.SpillDir,
	}
	id := s.jobs.start(&s.wg, func() (string, *CompressResult, error) {
		ds, err := s.captureDataset(s.baseCtx, name, req, opts)
		if err != nil {
			return "", nil, err
		}
		if err := s.reg.put(name, ds); err != nil {
			ds.Close()
			return "", nil, err
		}
		return name, nil, nil
	})
	writeJSON(w, http.StatusAccepted, JobResponse{Job: id})
}

// captureDataset builds a dataset from a built-in generator. Both
// generators use the Plans tree of the paper's running telephony example,
// so single-tree frontiers and sweeps work out of the box.
func (s *Server) captureDataset(ctx context.Context, name string, req CaptureRequest, opts cobra.Options) (*cobra.Dataset, error) {
	names := cobra.NewNames()
	switch req.Generator {
	case "figure1":
		cat, err := telephony.InstrumentPrices(telephony.Figure1DB(), names)
		if err != nil {
			return nil, err
		}
		trees := cobra.Forest{telephony.PlansTree(names)}
		return cobra.CaptureDataset(ctx, name, telephony.RevenueQuery, cat, names, "revenue", trees, opts)
	case "telephony":
		set := telephony.DirectProvenance(telephony.Config{Customers: req.Customers}, names)
		trees := cobra.Forest{telephony.PlansTree(names)}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return cobra.OpenDataset(name, set, trees, opts)
	default:
		return nil, fmt.Errorf("unknown generator %q", req.Generator)
	}
}

func (s *Server) handleCompress(w http.ResponseWriter, r *http.Request) {
	ds, name, ok := s.dataset(w, r)
	if !ok {
		return
	}
	var req CompressRequest
	if !decodeJSON(w, r, maxRequestBody, &req) {
		return
	}
	as := req.As
	if as == "" {
		as = fmt.Sprintf("%s@%d", name, req.Bound)
	}
	if _, exists := s.reg.get(as); exists {
		writeErr(w, http.StatusConflict, "dataset %q already exists", as)
		return
	}
	workers := s.clampWorkers(req.Workers)
	bound := req.Bound
	id := s.jobs.start(&s.wg, func() (string, *CompressResult, error) {
		release, err := s.acquireWorkers(s.baseCtx, workers)
		if err != nil {
			return "", nil, err
		}
		defer release()
		view := ds.WithWorkers(workers)
		res, err := view.Compress(s.baseCtx, bound)
		if err != nil {
			return "", nil, err
		}
		derived, err := view.Apply(s.baseCtx, res.Cuts...)
		if err != nil {
			return "", nil, err
		}
		if err := s.reg.put(as, derived); err != nil {
			derived.Close()
			return "", nil, err
		}
		return as, compressResult(bound, res), nil
	})
	writeJSON(w, http.StatusAccepted, JobResponse{Job: id})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	info, ok := s.jobs.info(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "job %q not found", id)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	ds, _, ok := s.dataset(w, r)
	if !ok {
		return
	}
	var req EvalRequest
	if !decodeBody(w, r, maxRequestBody, func(dec *json.Decoder) error { return decodeEval(dec, ds.Len(), &req) }) {
		return
	}
	names := ds.Names()
	assignments := make([]*cobra.Assignment, len(req.Assignments))
	for i, vals := range req.Assignments {
		// The map yields names in no order and an Assignment inserts out of
		// order in O(entries): resolve first, then set in Var order.
		vars := make([]cobra.Var, 0, len(vals))
		for name := range vals {
			v, ok := names.Lookup(name)
			if !ok {
				writeErr(w, http.StatusBadRequest, "assignment %d: valuation: unknown variable %q", i, name)
				return
			}
			vars = append(vars, v)
		}
		slices.Sort(vars)
		a := cobra.NewAssignment(names)
		for _, v := range vars {
			a.SetVar(v, vals[names.Name(v)])
		}
		assignments[i] = a
	}
	workers := s.clampWorkers(req.Workers)
	release, err := s.acquireWorkers(r.Context(), workers)
	if err != nil {
		writeSolveErr(w, err)
		return
	}
	defer release()
	rows, err := ds.WithWorkers(workers).EvalBatch(r.Context(), assignments)
	if err != nil {
		writeSolveErr(w, err)
		return
	}
	if rows == nil {
		rows = [][]float64{}
	}
	writeJSON(w, http.StatusOK, EvalResponse{Rows: rows})
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	ds, _, ok := s.dataset(w, r)
	if !ok {
		return
	}
	var req SweepRequest
	if !decodeJSON(w, r, maxRequestBody, &req) {
		return
	}
	if len(req.Bounds) > maxBoundsPerSweep {
		writeErr(w, http.StatusRequestEntityTooLarge, "%d bounds exceeds %d per request", len(req.Bounds), maxBoundsPerSweep)
		return
	}
	workers := s.clampWorkers(req.Workers)
	release, err := s.acquireWorkers(r.Context(), workers)
	if err != nil {
		writeSolveErr(w, err)
		return
	}
	defer release()
	answers, err := ds.WithWorkers(workers).Sweep(r.Context(), req.Bounds)
	if err != nil {
		writeSolveErr(w, err)
		return
	}
	out := make([]SweepAnswer, len(answers))
	for i, a := range answers {
		out[i] = SweepAnswer{Bound: a.Bound}
		switch {
		case a.Result != nil:
			out[i].Result = compressResult(a.Bound, a.Result)
		default:
			var inf *cobra.InfeasibleError
			if errors.As(a.Err, &inf) {
				out[i].Infeasible = true
				out[i].MinAchievable = inf.MinAchievable
			} else {
				out[i].Error = a.Err.Error()
			}
		}
	}
	writeJSON(w, http.StatusOK, SweepResponse{Answers: out})
}

func (s *Server) handleFrontier(w http.ResponseWriter, r *http.Request) {
	ds, _, ok := s.dataset(w, r)
	if !ok {
		return
	}
	release, err := s.acquireWorkers(r.Context(), 1)
	if err != nil {
		writeSolveErr(w, err)
		return
	}
	defer release()
	points, err := ds.Frontier(r.Context())
	if err != nil {
		writeSolveErr(w, err)
		return
	}
	out := make([]FrontierPoint, len(points))
	for i, p := range points {
		out[i] = FrontierPoint{NumMeta: p.NumMeta, MinSize: p.MinSize, Cut: p.Cut.Names()}
	}
	writeJSON(w, http.StatusOK, FrontierResponse{Points: out})
}
