package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	cobra "github.com/cobra-prov/cobra"
	"github.com/cobra-prov/cobra/internal/datagen/telephony"
	"github.com/cobra-prov/cobra/serve"
)

func startServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	srv := serve.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

// doJSON performs one request and decodes the JSON response into out.
func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && resp.StatusCode != http.StatusNoContent {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// waitJob polls a job until it leaves the running state.
func waitJob(t *testing.T, base, id string) serve.JobInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var info serve.JobInfo
		if code := doJSON(t, "GET", base+"/v1/jobs/"+id, nil, &info); code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		if info.State != "running" {
			return info
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return serve.JobInfo{}
}

// figure1Direct replicates the server's "figure1" capture with the direct
// library API, for bit-identical comparison.
func figure1Direct(t *testing.T, workers int) *cobra.Dataset {
	t.Helper()
	names := cobra.NewNames()
	cat, err := telephony.InstrumentPrices(telephony.Figure1DB(), names)
	if err != nil {
		t.Fatal(err)
	}
	trees := cobra.Forest{telephony.PlansTree(names)}
	ds, err := cobra.CaptureDataset(context.Background(), "fig", telephony.RevenueQuery, cat, names, "revenue",
		trees, cobra.Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds
}

// TestServeEndToEndBitIdentical drives the full HTTP lifecycle — capture
// job, compress job, eval/sweep/frontier — and checks every numeric
// answer is bit-identical to the direct cobra.Dataset calls, for each
// request worker budget.
func TestServeEndToEndBitIdentical(t *testing.T) {
	_, ts := startServer(t, serve.Config{MaxWorkers: 8})
	ctx := context.Background()

	var jr serve.JobResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/datasets/fig/capture", serve.CaptureRequest{Generator: "figure1"}, &jr); code != http.StatusAccepted {
		t.Fatalf("capture: status %d", code)
	}
	if info := waitJob(t, ts.URL, jr.Job); info.State != "done" || info.Dataset != "fig" {
		t.Fatalf("capture job: %+v", info)
	}

	direct := figure1Direct(t, 8)
	bound := direct.Size() / 2
	resDirect, err := direct.Compress(ctx, bound)
	if err != nil {
		t.Fatal(err)
	}
	derivedDirect, err := direct.Apply(ctx, resDirect.Cuts...)
	if err != nil {
		t.Fatal(err)
	}

	if code := doJSON(t, "POST", ts.URL+"/v1/datasets/fig/compress", serve.CompressRequest{Bound: bound, As: "fig-small"}, &jr); code != http.StatusAccepted {
		t.Fatalf("compress: status %d", code)
	}
	compInfo := waitJob(t, ts.URL, jr.Job)
	if compInfo.State != "done" || compInfo.Dataset != "fig-small" || compInfo.Result == nil {
		t.Fatalf("compress job: %+v", compInfo)
	}
	if compInfo.Result.Size != resDirect.Size || compInfo.Result.NumMeta != resDirect.NumMeta {
		t.Fatalf("compress result: size=%d meta=%d, want size=%d meta=%d",
			compInfo.Result.Size, compInfo.Result.NumMeta, resDirect.Size, resDirect.NumMeta)
	}
	wantCut := resDirect.Cuts[0].Names()
	if fmt.Sprint(compInfo.Result.Cuts[0]) != fmt.Sprint(wantCut) {
		t.Fatalf("compress cut: %v want %v", compInfo.Result.Cuts[0], wantCut)
	}

	scenarios := []map[string]float64{{"m3": 0.8}, {}, {"m1": 1.1, "m3": 0.8}}
	mkAssignments := func(ds *cobra.Dataset, induced bool) []*cobra.Assignment {
		out := make([]*cobra.Assignment, len(scenarios))
		for i, vals := range scenarios {
			a := cobra.NewAssignment(ds.Names())
			for name, x := range vals {
				if err := a.Set(name, x); err != nil {
					t.Fatal(err)
				}
			}
			if induced {
				a = cobra.Induced(a, resDirect.Cuts...)
			}
			out[i] = a
		}
		return out
	}

	bounds := []int{0, bound, direct.Size() * 2}
	wantAns, err := direct.Sweep(ctx, bounds)
	if err != nil {
		t.Fatal(err)
	}
	wantFrontier, err := direct.Frontier(ctx)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// Eval on the raw capture.
			wantRows, err := direct.WithWorkers(workers).EvalBatch(ctx, mkAssignments(direct, false))
			if err != nil {
				t.Fatal(err)
			}
			var er serve.EvalResponse
			if code := doJSON(t, "POST", ts.URL+"/v1/datasets/fig/eval",
				serve.EvalRequest{Assignments: scenarios, Workers: workers}, &er); code != http.StatusOK {
				t.Fatalf("eval: status %d", code)
			}
			checkRows(t, er.Rows, wantRows, "eval fig")

			// Eval on the compressed derived dataset: the cheap steady-state
			// path. Scenario variables survive the cut (months are context
			// vars), so the same scenarios apply.
			wantDerived, err := derivedDirect.WithWorkers(workers).EvalBatch(ctx, mkAssignments(derivedDirect, false))
			if err != nil {
				t.Fatal(err)
			}
			if code := doJSON(t, "POST", ts.URL+"/v1/datasets/fig-small/eval",
				serve.EvalRequest{Assignments: scenarios, Workers: workers}, &er); code != http.StatusOK {
				t.Fatalf("eval derived: status %d", code)
			}
			checkRows(t, er.Rows, wantDerived, "eval fig-small")

			var sr serve.SweepResponse
			if code := doJSON(t, "POST", ts.URL+"/v1/datasets/fig/sweep",
				serve.SweepRequest{Bounds: bounds, Workers: workers}, &sr); code != http.StatusOK {
				t.Fatalf("sweep: status %d", code)
			}
			if len(sr.Answers) != len(wantAns) {
				t.Fatalf("sweep: %d answers, want %d", len(sr.Answers), len(wantAns))
			}
			for i, a := range sr.Answers {
				want := wantAns[i]
				if a.Bound != want.Bound {
					t.Fatalf("sweep answer %d: bound %d want %d", i, a.Bound, want.Bound)
				}
				if want.Result != nil {
					if a.Result == nil || a.Result.Size != want.Result.Size || a.Result.NumMeta != want.Result.NumMeta {
						t.Fatalf("sweep bound %d: %+v, want size=%d meta=%d", a.Bound, a.Result, want.Result.Size, want.Result.NumMeta)
					}
					continue
				}
				var inf *cobra.InfeasibleError
				if errors.As(want.Err, &inf) {
					if !a.Infeasible || a.MinAchievable != inf.MinAchievable {
						t.Fatalf("sweep bound %d: %+v, want infeasible min %d", a.Bound, a, inf.MinAchievable)
					}
				} else if a.Error != want.Err.Error() {
					t.Fatalf("sweep bound %d: error %q want %q", a.Bound, a.Error, want.Err)
				}
			}

			var fr serve.FrontierResponse
			if code := doJSON(t, "GET", ts.URL+"/v1/datasets/fig/frontier", nil, &fr); code != http.StatusOK {
				t.Fatalf("frontier: status %d", code)
			}
			if len(fr.Points) != len(wantFrontier) {
				t.Fatalf("frontier: %d points, want %d", len(fr.Points), len(wantFrontier))
			}
			for i, p := range fr.Points {
				want := wantFrontier[i]
				if p.NumMeta != want.NumMeta || p.MinSize != want.MinSize || fmt.Sprint(p.Cut) != fmt.Sprint(want.Cut.Names()) {
					t.Fatalf("frontier point %d: %+v want %+v", i, p, want)
				}
			}
		})
	}
}

func checkRows(t *testing.T, got, want [][]float64, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d has %d entries, want %d", what, i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: row %d col %d = %v, want %v (must be bit-identical over JSON)", what, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestServeRegisterAndErrors covers the synchronous register path plus the
// API's failure modes.
func TestServeRegisterAndErrors(t *testing.T) {
	_, ts := startServer(t, serve.Config{MaxWorkers: 2})

	names := cobra.NewNames()
	set := cobra.NewSet(names)
	if err := set.Add("z1", cobra.MustParsePolynomial("208.8*p1*m1 + 240*p1*m3 + 127.4*f1*m1 + 114.45*f1*m3", names)); err != nil {
		t.Fatal(err)
	}
	tree, err := cobra.TreeFromPaths("Plans", names, []string{"Standard", "p1"}, []string{"Special", "f1"})
	if err != nil {
		t.Fatal(err)
	}
	var prov strings.Builder
	if err := cobra.WriteSet(&prov, set, cobra.FormatText); err != nil {
		t.Fatal(err)
	}
	treeJSON, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.RegisterRequest{Provenance: prov.String(), Trees: []json.RawMessage{treeJSON}}

	var info serve.DatasetInfo
	if code := doJSON(t, "PUT", ts.URL+"/v1/datasets/mini", reg, &info); code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
	if info.Name != "mini" || info.Polys != 1 || info.Size != set.Size() {
		t.Fatalf("register info: %+v", info)
	}

	var er serve.ErrorResponse
	if code := doJSON(t, "PUT", ts.URL+"/v1/datasets/mini", reg, &er); code != http.StatusConflict {
		t.Fatalf("duplicate register: status %d", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/datasets/nope", nil, &er); code != http.StatusNotFound {
		t.Fatalf("missing dataset: status %d", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs/job-99", nil, &er); code != http.StatusNotFound {
		t.Fatalf("missing job: status %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/datasets/mini/eval",
		serve.EvalRequest{Assignments: []map[string]float64{{"bogus": 1}}}, &er); code != http.StatusBadRequest {
		t.Fatalf("unknown var: status %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/datasets/x/capture",
		serve.CaptureRequest{Generator: "bogus"}, &er); code != http.StatusBadRequest {
		t.Fatalf("unknown generator: status %d", code)
	}

	// Round-trip eval on the registered dataset against the direct call.
	a := cobra.NewAssignment(names)
	if err := a.Set("m3", 0.8); err != nil {
		t.Fatal(err)
	}
	want := cobra.EvalSet(set, a)
	var ev serve.EvalResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/datasets/mini/eval",
		serve.EvalRequest{Assignments: []map[string]float64{{"m3": 0.8}}}, &ev); code != http.StatusOK {
		t.Fatalf("eval: status %d", code)
	}
	checkRows(t, ev.Rows, [][]float64{want}, "registered eval")

	if code := doJSON(t, "DELETE", ts.URL+"/v1/datasets/mini", nil, nil); code != http.StatusNoContent {
		t.Fatal("delete failed")
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/datasets/mini", nil, &er); code != http.StatusNotFound {
		t.Fatal("dataset survived delete")
	}
}

// TestServeRegisterSpillFailure: a register whose budget makes OpenDataset
// spill, under a SpillDir that cannot hold a directory (a regular file —
// root ignores permission bits, so a read-only directory would not fail),
// answers 500 and registers nothing, leaving nothing beside that file.
func TestServeRegisterSpillFailure(t *testing.T) {
	dir := t.TempDir()
	notDir := dir + "/spill"
	if err := os.WriteFile(notDir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := startServer(t, serve.Config{MaxWorkers: 2, SpillDir: notDir})
	names := cobra.NewNames()
	set := telephony.DirectProvenance(telephony.Config{Customers: 40}, names)
	var prov strings.Builder
	if err := cobra.WriteSet(&prov, set, cobra.FormatText); err != nil {
		t.Fatal(err)
	}
	treeJSON, err := json.Marshal(telephony.PlansTree(names))
	if err != nil {
		t.Fatal(err)
	}
	req := serve.RegisterRequest{Provenance: prov.String(), Trees: []json.RawMessage{treeJSON}, MaxResidentMonomials: set.Size() / 8}
	var er serve.ErrorResponse
	if code := doJSON(t, "PUT", ts.URL+"/v1/datasets/d", req, &er); code != http.StatusInternalServerError {
		t.Fatalf("register with an unwritable spill dir: status %d (%+v), want 500", code, er)
	}
	var list serve.DatasetsResponse
	if code := doJSON(t, "GET", ts.URL+"/v1/datasets", nil, &list); code != http.StatusOK || len(list.Datasets) != 0 {
		t.Fatalf("after a failed register: status %d, datasets %+v", code, list.Datasets)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "spill" || !entries[0].Type().IsRegular() {
		t.Fatalf("the spill location holds %v after a failed register", entries)
	}
	if data, err := os.ReadFile(notDir); err != nil || string(data) != "x" {
		t.Fatalf("the spill file was touched: %q, %v", data, err)
	}

	// Without a budget nothing spills, and the same register succeeds.
	req.MaxResidentMonomials = 0
	var info serve.DatasetInfo
	if code := doJSON(t, "PUT", ts.URL+"/v1/datasets/d", req, &info); code != http.StatusCreated || info.OutOfCore {
		t.Fatalf("unbudgeted register: status %d, %+v", code, info)
	}
}

// TestServeEvictionRoundTrip registers two out-of-core datasets under a
// residency budget of one: traffic alternating between them forces LRU
// evictions, and answers must stay identical across them.
func TestServeEvictionRoundTrip(t *testing.T) {
	_, ts := startServer(t, serve.Config{MaxWorkers: 2, MaxResidentDatasets: 1, SpillDir: t.TempDir()})

	mkReq := func(seed string) serve.RegisterRequest {
		names := cobra.NewNames()
		set := telephony.DirectProvenance(telephony.Config{Customers: 40}, names)
		tree := telephony.PlansTree(names)
		var prov strings.Builder
		if err := cobra.WriteSet(&prov, set, cobra.FormatText); err != nil {
			t.Fatal(err)
		}
		treeJSON, err := json.Marshal(tree)
		if err != nil {
			t.Fatal(err)
		}
		_ = seed
		return serve.RegisterRequest{
			Provenance:           prov.String(),
			Trees:                []json.RawMessage{treeJSON},
			MaxResidentMonomials: 256,
		}
	}
	for _, name := range []string{"d1", "d2"} {
		var info serve.DatasetInfo
		if code := doJSON(t, "PUT", ts.URL+"/v1/datasets/"+name, mkReq(name), &info); code != http.StatusCreated {
			t.Fatalf("register %s: status %d", name, code)
		}
		if !info.OutOfCore {
			t.Fatalf("register %s: expected out-of-core", name)
		}
	}

	eval := func(name string) [][]float64 {
		var er serve.EvalResponse
		if code := doJSON(t, "POST", ts.URL+"/v1/datasets/"+name+"/eval",
			serve.EvalRequest{Assignments: []map[string]float64{{"m3": 0.8}, {}}}, &er); code != http.StatusOK {
			t.Fatalf("eval %s: status %d", name, code)
		}
		return er.Rows
	}

	first1, first2 := eval("d1"), eval("d2")
	for round := 0; round < 3; round++ {
		checkRows(t, eval("d1"), first1, "d1 after eviction cycles")
		checkRows(t, eval("d2"), first2, "d2 after eviction cycles")
	}

	// The budget held: at most one of the two is resident.
	var list serve.DatasetsResponse
	if code := doJSON(t, "GET", ts.URL+"/v1/datasets", nil, &list); code != http.StatusOK {
		t.Fatal("list failed")
	}
	resident := 0
	for _, d := range list.Datasets {
		if !d.OutOfCore {
			t.Fatalf("dataset %s should be out-of-core", d.Name)
		}
		if d.Resident {
			resident++
		}
	}
	if resident > 1 {
		t.Fatalf("%d datasets resident, budget is 1", resident)
	}
}

// TestEvalLargeAssignmentAnyOrder: a request may name 200 000 variables in
// an order opposite to their Vars (JSON object order is the client's, and
// the decoded map's is random). Each insert below the last entry moves the
// ones above it, so the handler resolves and sorts first: the request is
// answered in well under the time one quadratic build would take (tens of
// seconds), with the rows of an assignment built in Var order.
func TestEvalLargeAssignmentAnyOrder(t *testing.T) {
	const n = 200_000
	_, ts := startServer(t, serve.Config{})
	var prov strings.Builder
	prov.WriteString("total\t")
	scenario := make(map[string]float64, n)
	for i := n - 1; i >= 0; i-- { // v199999 is Var 0: names sort opposite to Vars
		name := fmt.Sprintf("v%06d", i)
		fmt.Fprintf(&prov, "1*%s", name)
		if i > 0 {
			prov.WriteString(" + ")
		}
		scenario[name] = 1 + float64(i%7)/8
	}
	names := cobra.NewNames()
	set, _, err := cobra.ReadSet(strings.NewReader(prov.String()), names)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := names.Lookup("v000000"); int(v) != n-1 {
		t.Fatalf("v000000 is Var %d, want %d", v, n-1)
	}
	a := cobra.NewAssignment(names)
	for v := 0; v < n; v++ {
		a.SetVar(cobra.Var(v), scenario[names.Name(cobra.Var(v))])
	}
	want := cobra.EvalSet(set, a)

	if code := doJSON(t, "PUT", ts.URL+"/v1/datasets/wide", serve.RegisterRequest{Provenance: prov.String()}, nil); code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
	start := time.Now()
	var ev serve.EvalResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/datasets/wide/eval",
		serve.EvalRequest{Assignments: []map[string]float64{scenario}}, &ev); code != http.StatusOK {
		t.Fatalf("eval: status %d", code)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("a %d-entry assignment took %v to answer", n, d)
	}
	checkRows(t, ev.Rows, [][]float64{want}, "large assignment")
}
