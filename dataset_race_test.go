package cobra_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	cobra "github.com/cobra-prov/cobra"
)

// TestDatasetConcurrentAccess hammers one shared Dataset with concurrent
// EvalBatch / Sweep / Compress calls at Workers ∈ {1, 2, 8} and checks
// every answer against values precomputed on an independent copy of the
// same workload — the determinism contract says they must be identical
// regardless of interleaving or worker count. Run under -race.
func TestDatasetConcurrentAccess(t *testing.T) {
	for _, tc := range []struct {
		name        string
		maxResident int
		indexed     bool
	}{
		{"in-memory", 0, false},
		{"out-of-core", 512, false},
		{"indexed", 512, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			open := telephonyDataset
			if tc.indexed {
				open = indexedTelephonyDataset
			}
			ds, set, trees := open(t, tc.maxResident)
			ctx := context.Background()

			// Expected values from a fresh, unshared dataset so the
			// shared one's memoization cannot trivialize the check.
			ref, err := cobra.OpenDataset("ref", set, trees, cobra.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			asgs := telScenarios(t, ds.Names())
			wantRows, err := ref.EvalBatch(ctx, asgs)
			if err != nil {
				t.Fatal(err)
			}
			bounds := []int{0, set.Size() / 3, set.Size() / 2, set.Size() * 2}
			wantAns, err := ref.Sweep(ctx, bounds)
			if err != nil {
				t.Fatal(err)
			}
			compressBounds := []int{set.Size() / 3, set.Size() / 2, set.Size()}
			wantRes := make(map[int]*cobra.Result, len(compressBounds))
			for _, b := range compressBounds {
				r, err := ref.Compress(ctx, b)
				if err != nil {
					t.Fatal(err)
				}
				wantRes[b] = r
			}

			var (
				wg   sync.WaitGroup
				mu   sync.Mutex
				errs []string
			)
			fail := func(format string, args ...any) {
				mu.Lock()
				defer mu.Unlock()
				if len(errs) < 10 {
					errs = append(errs, testName(format, args...))
				}
			}
			for _, workers := range []int{1, 2, 8} {
				view := ds.WithWorkers(workers)
				for g := 0; g < 3; g++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						rows, err := view.EvalBatch(ctx, asgs)
						if err != nil {
							fail("workers=%d EvalBatch: %v", w, err)
							return
						}
						for i := range rows {
							for j := range rows[i] {
								if rows[i][j] != wantRows[i][j] {
									fail("workers=%d EvalBatch row %d col %d: %v != %v", w, i, j, rows[i][j], wantRows[i][j])
									return
								}
							}
						}
					}(workers)
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						ans, err := view.Sweep(ctx, bounds)
						if err != nil {
							fail("workers=%d Sweep: %v", w, err)
							return
						}
						for i := range ans {
							g, want := ans[i], wantAns[i]
							if (g.Err == nil) != (want.Err == nil) {
								fail("workers=%d Sweep bound %d: err=%v want %v", w, g.Bound, g.Err, want.Err)
								return
							}
							if g.Err == nil && (g.Result.Size != want.Result.Size || g.Result.NumMeta != want.Result.NumMeta) {
								fail("workers=%d Sweep bound %d: size=%d meta=%d, want size=%d meta=%d",
									w, g.Bound, g.Result.Size, g.Result.NumMeta, want.Result.Size, want.Result.NumMeta)
								return
							}
						}
					}(workers)
					wg.Add(1)
					go func(w, bound int) {
						defer wg.Done()
						res, err := view.Compress(ctx, bound)
						if err != nil {
							fail("workers=%d Compress(%d): %v", w, bound, err)
							return
						}
						want := wantRes[bound]
						if res.Size != want.Size || res.NumMeta != want.NumMeta || !res.Cuts[0].Equal(want.Cuts[0]) {
							fail("workers=%d Compress(%d): size=%d meta=%d cut=%v, want size=%d meta=%d cut=%v",
								w, bound, res.Size, res.NumMeta, res.Cuts[0], want.Size, want.NumMeta, want.Cuts[0])
						}
					}(workers, compressBounds[g%len(compressBounds)])
				}
			}
			wg.Wait()
			for _, e := range errs {
				t.Error(e)
			}
		})
	}
}

// TestDatasetConcurrentEvictionTraffic interleaves Evict with live eval
// and sweep traffic on an out-of-core dataset: every answer must be
// identical whether it ran before, during or after the eviction.
func TestDatasetConcurrentEvictionTraffic(t *testing.T) {
	ds, set, trees := telephonyDataset(t, 512)
	ctx := context.Background()

	ref, err := cobra.OpenDataset("ref", set, trees, cobra.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	asgs := telScenarios(t, ds.Names())
	wantRows, err := ref.EvalBatch(ctx, asgs)
	if err != nil {
		t.Fatal(err)
	}
	bound := set.Size() / 2
	wantRes, err := ref.Compress(ctx, bound)
	if err != nil {
		t.Fatal(err)
	}

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []string
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		if len(errs) < 10 {
			errs = append(errs, testName(format, args...))
		}
	}
	stop := make(chan struct{})
	var evictWG sync.WaitGroup
	evictWG.Add(1)
	go func() {
		defer evictWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := ds.Evict(); err != nil {
				fail("Evict: %v", err)
				return
			}
		}
	}()
	for _, workers := range []int{1, 8} {
		view := ds.WithWorkers(workers)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for iter := 0; iter < 5; iter++ {
					rows, err := view.EvalBatch(ctx, asgs)
					if err != nil {
						fail("workers=%d eval under eviction: %v", w, err)
						return
					}
					for i := range rows {
						for j := range rows[i] {
							if rows[i][j] != wantRows[i][j] {
								fail("workers=%d eval under eviction row %d col %d: %v != %v",
									w, i, j, rows[i][j], wantRows[i][j])
								return
							}
						}
					}
				}
			}(workers)
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, err := ds.Compress(ctx, bound)
		if err != nil {
			fail("Compress under eviction: %v", err)
			return
		}
		if res.Size != wantRes.Size || !res.Cuts[0].Equal(wantRes.Cuts[0]) {
			fail("Compress under eviction: size=%d cut=%v, want size=%d cut=%v",
				res.Size, res.Cuts[0], wantRes.Size, wantRes.Cuts[0])
		}
	}()
	// Let the traffic goroutines finish, then stop the evictor.
	wg.Wait()
	close(stop)
	evictWG.Wait()
	for _, e := range errs {
		t.Error(e)
	}
}

// TestDatasetEvalBatchSharedScratch: eight goroutines evaluate different
// scenarios on one out-of-core Dataset at once, first against the spilled
// ShardedSet — whose packed passes all decode into the one scratch the set
// keeps, so they must serialize on its pass mutex — and then, once every
// goroutine has answered twice, while another goroutine evicts the dataset
// in a loop, so passes also queue behind the one that spills every shard
// and drops that scratch. Every row must equal the in-memory answer to its own
// scenario: a pass reading another's shard would differ in value, not only
// under -race.
func TestDatasetEvalBatchSharedScratch(t *testing.T) {
	ds, set, trees := telephonyDataset(t, 512)
	ctx := context.Background()
	ref, err := cobra.OpenDataset("ref", set, trees, cobra.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	const goroutines, iters = 8, 12
	var (
		wg, warm sync.WaitGroup
		mu       sync.Mutex
		errs     []string
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		if len(errs) < 10 {
			errs = append(errs, testName(format, args...))
		}
	}
	warm.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		a := cobra.NewAssignment(ds.Names())
		if err := a.Set(fmt.Sprintf("m%d", g+1), 0.5+float64(g)/10); err != nil {
			t.Fatal(err)
		}
		asgs := []*cobra.Assignment{a, cobra.NewAssignment(ds.Names())}
		want, err := ref.EvalBatch(ctx, asgs)
		if err != nil {
			t.Fatal(err)
		}
		view := ds.WithWorkers(1 + g%3)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			warmed := sync.OnceFunc(warm.Done)
			defer warmed() // also when it fails before answering twice
			for iter := 0; iter < iters; iter++ {
				if iter == 2 {
					warmed()
				}
				rows, err := view.EvalBatch(ctx, asgs)
				if err != nil {
					fail("goroutine %d iteration %d: %v", g, iter, err)
					return
				}
				for i := range want {
					for j := range want[i] {
						if rows[i][j] != want[i][j] {
							fail("goroutine %d iteration %d row %d col %d: %v != %v", g, iter, i, j, rows[i][j], want[i][j])
							return
						}
					}
				}
			}
		}(g)
	}
	stop := make(chan struct{})
	evictor := make(chan struct{})
	go func() {
		defer close(evictor)
		warm.Wait()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := ds.Evict(); err != nil {
				fail("Evict: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-evictor
	for _, e := range errs {
		t.Error(e)
	}
}

// TestDatasetFirstEvalBatchConcurrent fires the first EvalBatch of a fresh
// in-memory Dataset from eight goroutines at once, across WithWorkers
// views. The first evaluation compiles the program and builds what sparse
// scenarios are answered from; every caller must get the rows an
// out-of-core copy of the set (which evaluates every polynomial, shard by
// shard) gives. Run under -race.
func TestDatasetFirstEvalBatchConcurrent(t *testing.T) {
	ctx := context.Background()
	names := cobra.NewNames()
	set := cobra.NewSet(names)
	for g := 0; g < 40; g++ {
		poly := cobra.MustParsePolynomial(fmt.Sprintf("%d*x%d*s + %d*y%d*s + 7", g+2, g%10, g+3, g%7), names)
		if err := set.Add(fmt.Sprintf("g%d", g), poly); err != nil {
			t.Fatal(err)
		}
	}
	var asgs []*cobra.Assignment
	for i := 0; i < 24; i++ {
		a := cobra.NewAssignment(names)
		if i%3 > 0 { // every third scenario moves nothing
			if err := a.Set(fmt.Sprintf("x%d", i%10), 0.5+float64(i)/16); err != nil {
				t.Fatal(err)
			}
		}
		if i%8 == 7 { // s is in every polynomial
			if err := a.Set("s", 1.25); err != nil {
				t.Fatal(err)
			}
		}
		asgs = append(asgs, a)
	}
	opts := cobra.Options{MaxResidentMonomials: set.Size() / 4, SpillDir: t.TempDir()}
	ooc, err := cobra.OpenDataset("ooc", set, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ooc.Close()
	want, err := ooc.EvalBatch(ctx, asgs)
	if err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 20; round++ {
		ds, err := cobra.OpenDataset("fresh", set, nil, cobra.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		got := make([][][]float64, 8)
		errs := make([]error, 8)
		for g := range got {
			view := ds.WithWorkers([]int{1, 2, 8}[g%3])
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[g], errs[g] = view.EvalBatch(ctx, asgs)
			}()
		}
		close(start)
		wg.Wait()
		for g := range got {
			if errs[g] != nil {
				t.Fatalf("round %d goroutine %d: %v", round, g, errs[g])
			}
			rowsEqual(t, got[g], want, fmt.Sprintf("round %d goroutine %d", round, g))
		}
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func testName(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}
