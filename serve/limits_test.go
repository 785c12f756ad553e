package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// padding is an endless run of spaces — JSON whitespace the decoder skips
// without buffering, so an oversized body costs the test no memory.
type padding struct{}

func (padding) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestOversizedBodyRejected: every route that reads a body answers an
// overrun of its cap with a typed 413 and does nothing else — no dataset,
// no job — while the same request under the cap is served.
func TestOversizedBodyRejected(t *testing.T) {
	srv := New(Config{MaxWorkers: 1})
	defer srv.Close()
	send := func(method, path string, body io.Reader) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, body))
		return rec
	}
	register := `{"provenance":"g\t2*a*m + 3*b*m\n","trees":[{"name":"R","children":[{"name":"a"},{"name":"b"}]}]}`
	if rec := send("PUT", "/v1/datasets/d", strings.NewReader(register)); rec.Code != http.StatusCreated {
		t.Fatalf("register under the cap: status %d: %s", rec.Code, rec.Body)
	}

	for _, tc := range []struct {
		method, path string
		limit        int64
	}{
		{"PUT", "/v1/datasets/big", maxRegisterBody},
		{"POST", "/v1/datasets/big/capture", maxRequestBody},
		{"POST", "/v1/datasets/d/compress", maxRequestBody},
		{"POST", "/v1/datasets/d/eval", maxRequestBody},
		{"POST", "/v1/datasets/d/sweep", maxRequestBody},
	} {
		rec := send(tc.method, tc.path, io.LimitReader(padding{}, tc.limit+1))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s %s: status %d, want 413: %s", tc.method, tc.path, rec.Code, rec.Body)
		}
		var resp ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || !strings.Contains(resp.Error, "exceeds") {
			t.Fatalf("%s %s: body %q is not a typed error (%v)", tc.method, tc.path, rec.Body, err)
		}
	}

	var list DatasetsResponse
	if err := json.Unmarshal(send("GET", "/v1/datasets", nil).Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Datasets) != 1 || list.Datasets[0].Name != "d" {
		t.Fatalf("rejected requests changed the registry: %+v", list.Datasets)
	}
	if rec := send("GET", "/v1/jobs/job-1", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("a rejected request started a job: status %d", rec.Code)
	}
}

// TestHostileBinaryProvenanceRejected: a provenance string may be a binary
// set, and these twelve bytes are valid UTF-8, so they arrive intact under
// the body cap: a v1 header claiming 2^28-17 variables, then nothing. The
// reader used to size a table from the claim (1 GiB); it must answer 400
// having allocated next to nothing.
func TestHostileBinaryProvenanceRejected(t *testing.T) {
	srv := New(Config{MaxWorkers: 1})
	defer srv.Close()
	for _, prov := range []string{"CPRVB1\n\uffff\x7f", "CPRVB2\nS\uffff\x7f"} {
		body, err := json.Marshal(RegisterRequest{Provenance: prov})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("PUT", "/v1/datasets/hostile", bytes.NewReader(body)))
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%q: status %d, want 400: %s", prov, rec.Code, rec.Body)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Fatalf("%q: the request allocated %d bytes", prov, got)
		}
	}
}

// TestOversizedWorkRejected: the byte caps bound what a request sends, the
// work caps what it asks for. An eval answers assignments × polynomials
// float64s — a 3 MB body of a million empty assignments over 64 polynomials
// was a 130 MB response — and a sweep one answer per bound: over the cap
// both get a typed 413 before any worker is taken, having allocated little
// more than the decoded body, and change nothing; one under it is served.
func TestOversizedWorkRejected(t *testing.T) {
	srv := New(Config{MaxWorkers: 1})
	defer srv.Close()
	send := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	const polys = 64
	var prov strings.Builder
	for i := 0; i < polys; i++ {
		fmt.Fprintf(&prov, "g%d\t2*a*m + 3*b*m\n", i)
	}
	register, err := json.Marshal(RegisterRequest{
		Provenance: prov.String(),
		Trees:      []json.RawMessage{json.RawMessage(`{"name":"R","children":[{"name":"a"},{"name":"b"}]}`)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec := send("PUT", "/v1/datasets/d", string(register)); rec.Code != http.StatusCreated {
		t.Fatalf("register: status %d: %s", rec.Code, rec.Body)
	}
	evalBody := func(assignments int) string {
		return `{"assignments":[` + strings.TrimSuffix(strings.Repeat("{},", assignments), ",") + `]}`
	}
	sweepBody := func(bounds int) string {
		return `{"bounds":[` + strings.TrimSuffix(strings.Repeat("3,", bounds), ",") + `]}`
	}

	for _, tc := range []struct {
		path, over, under string
	}{
		{"/v1/datasets/d/eval", evalBody(1_000_000), evalBody(maxEvalCells / polys)},
		{"/v1/datasets/d/sweep", sweepBody(maxBoundsPerSweep + 1), sweepBody(maxBoundsPerSweep)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := send("POST", tc.path, tc.over)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s over the cap: status %d, want 413: %.200s", tc.path, rec.Code, rec.Body)
		}
		var resp ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || !strings.Contains(resp.Error, "exceeds") {
			t.Fatalf("%s: body %q is not a typed error (%v)", tc.path, rec.Body, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 16<<20 {
			t.Fatalf("%s: the rejected request allocated %d bytes", tc.path, got)
		}
		if rec := send("POST", tc.path, tc.under); rec.Code != http.StatusOK {
			t.Fatalf("%s at the cap: status %d: %.200s", tc.path, rec.Code, rec.Body)
		}
	}

	var list DatasetsResponse
	if err := json.Unmarshal(send("GET", "/v1/datasets", "").Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Datasets) != 1 || list.Datasets[0].Name != "d" {
		t.Fatalf("rejected requests changed the registry: %+v", list.Datasets)
	}
	if rec := send("GET", "/v1/jobs/job-1", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("a rejected request started a job: status %d", rec.Code)
	}
}

// TestDecodeEvalMatchesEncodingJSON: the streaming eval decoder accepts,
// refuses and decodes what json.Decoder with DisallowUnknownFields does.
func TestDecodeEvalMatchesEncodingJSON(t *testing.T) {
	for _, body := range []string{
		`{"assignments":[{"m3":0.8},{}],"workers":2}`,
		`{"workers":3,"assignments":[{"a":1,"b":2.5e-3}]}`,
		`{"Assignments":[{"a":1}],"WORKERS":1}`,
		`{"assignments":null,"workers":null}`,
		`{"assignments":[]}`,
		`{}`,
		`{"assignments":[{"a":1}],"extra":1}`,
		`{"assignments":{"a":1}}`,
		`{"assignments":[{"a":"x"}]}`,
		`{"assignments":[{"a":1}`,
		`{"assignments":[1]}`,
		`{"workers":"2"}`,
		`[]`,
		`null`,
		``,
	} {
		var want, got EvalRequest
		ref := json.NewDecoder(strings.NewReader(body))
		ref.DisallowUnknownFields()
		wantErr := ref.Decode(&want)
		gotErr := decodeEval(json.NewDecoder(strings.NewReader(body)), 1, &got)
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("%s: err = %v, encoding/json says %v", body, gotErr, wantErr)
			continue
		}
		if wantErr == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded %+v, encoding/json decodes %+v", body, got, want)
		}
	}
}
