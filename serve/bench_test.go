package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	cobra "github.com/cobra-prov/cobra"
	"github.com/cobra-prov/cobra/internal/datagen/telephony"
	"github.com/cobra-prov/cobra/serve"
)

// compressedTelephony returns the telephony provenance of the given number
// of customers compressed to size/divisor, and its namespace.
func compressedTelephony(b *testing.B, customers, divisor int) (*cobra.Names, *cobra.Dataset) {
	names := cobra.NewNames()
	set := telephony.DirectProvenance(telephony.Config{Customers: customers}, names)
	full, err := cobra.OpenDataset("tel", set, cobra.Forest{telephony.PlansTree(names)}, cobra.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { full.Close() })
	ctx := context.Background()
	res, err := full.Compress(ctx, set.Size()/divisor)
	if err != nil {
		b.Fatal(err)
	}
	small, err := full.Apply(ctx, res.Cuts...)
	if err != nil {
		b.Fatal(err)
	}
	return names, small
}

// BenchmarkServeEvalBatch measures sustained EvalBatch throughput against
// the daemon in its steady state: a telephony dataset captured and
// compressed once, scenario requests answered from the compressed
// provenance over HTTP. Reported in req/s (the driver checks the floor).
func BenchmarkServeEvalBatch(b *testing.B) {
	srv := serve.New(serve.Config{MaxWorkers: 4})
	defer srv.Close()
	_, small := compressedTelephony(b, 5000, 4)
	if err := srv.Register("tel-small", small); err != nil {
		b.Fatal(err)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	url := ts.URL + "/v1/datasets/tel-small/eval"
	body, err := json.Marshal(serve.EvalRequest{
		Assignments: []map[string]float64{{"m3": 0.8}},
		Workers:     1,
	})
	if err != nil {
		b.Fatal(err)
	}

	post := func(client *http.Client) error {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var er serve.EvalResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK || len(er.Rows) != 1 {
			return fmt.Errorf("status %d, %d rows", resp.StatusCode, len(er.Rows))
		}
		return nil
	}
	if err := post(http.DefaultClient); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := &http.Client{Transport: &http.Transport{}}
		for pb.Next() {
			if err := post(client); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServeSweep measures sweep traffic answered from the memoized
// frontier curve: after the first request pays the DP, every following
// sweep is pure lookup.
func BenchmarkServeSweep(b *testing.B) {
	srv := serve.New(serve.Config{MaxWorkers: 4})
	defer srv.Close()

	names := cobra.NewNames()
	set := telephony.DirectProvenance(telephony.Config{Customers: 5000}, names)
	ds, err := cobra.OpenDataset("tel", set, cobra.Forest{telephony.PlansTree(names)}, cobra.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Register("tel", ds); err != nil {
		b.Fatal(err)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	url := ts.URL + "/v1/datasets/tel/sweep"
	body, err := json.Marshal(serve.SweepRequest{
		Bounds: []int{set.Size(), set.Size() / 2, set.Size() / 4, 1},
	})
	if err != nil {
		b.Fatal(err)
	}

	do := func() error {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var sr serve.SweepResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK || len(sr.Answers) != 4 {
			return fmt.Errorf("status %d, %d answers", resp.StatusCode, len(sr.Answers))
		}
		return nil
	}
	if err := do(); err != nil { // pay the DP outside the timed region
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := do(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServeHandler is the serve layer's own row: one sparse what-if
// ({"m3": 0.8}, one worker) on the paper-scale telephony set compressed to
// a third (1 055 polynomials), answered by the eval route — mux, request
// decode, name resolution, worker gate, evaluation, response encode — into
// an httptest.ResponseRecorder, beside the same evaluation called directly.
// No socket and no client: the difference of the two rows is what the
// handler adds to a Dataset.EvalBatch.
func BenchmarkServeHandler(b *testing.B) {
	names, comp := compressedTelephony(b, 1_000_000, 3)
	srv := serve.New(serve.Config{MaxWorkers: 1})
	defer srv.Close()
	if err := srv.Register("comp", comp); err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(serve.EvalRequest{Assignments: []map[string]float64{{"m3": 0.8}}, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	microsPerOp := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/op")
	}

	b.Run("handler", func(b *testing.B) {
		h := srv.Handler()
		for b.Loop() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/datasets/comp/eval", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
		}
		microsPerOp(b)
	})
	b.Run("direct", func(b *testing.B) {
		scenario := []*cobra.Assignment{cobra.NewAssignment(names).MustSet("m3", 0.8)}
		for b.Loop() {
			rows, err := comp.EvalBatch(context.Background(), scenario)
			if err != nil {
				b.Fatal(err)
			}
			if len(rows[0]) != comp.Len() {
				b.Fatalf("%d cells for %d polynomials", len(rows[0]), comp.Len())
			}
		}
		microsPerOp(b)
	})
}
