// Command cobra-serve is the long-lived what-if daemon: it holds named,
// immutable compressed provenance datasets in memory (or out-of-core,
// under a residency budget) and answers concurrent scenario-evaluation and
// frontier-sweep requests over HTTP/JSON. Capture and compression happen
// once, as background jobs; every evaluation afterwards is a lookup plus a
// cheap valuation — the amortization COBRA is designed around.
//
// Usage:
//
//	cobra-serve [-addr :8080] [-max-workers N] [-max-resident-datasets N] [-spill-dir DIR]
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// finish (with a drain timeout), background jobs are canceled and awaited,
// and every dataset's spill state is released.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/cobra-prov/cobra/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "cobra-serve:", err)
		os.Exit(1)
	}
}

// Connection timeouts: a client that stalls sending its headers or body, or
// parks an idle keep-alive connection, is cut off instead of holding a
// goroutine and a file descriptor forever. There is no write timeout: a
// sweep or eval over a large dataset may legitimately compute for longer
// than any fixed bound, and the request context already cancels it when the
// client goes away.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 2 * time.Minute // a maximal 64 MiB register body at ≈ 0.5 MB/s
	idleTimeout       = 2 * time.Minute
)

// run builds and serves until ctx is canceled. ready, when non-nil, is
// called with the bound address once the listener accepts connections —
// the test seam (use addr "127.0.0.1:0" for an ephemeral port).
func run(ctx context.Context, args []string, stdout, stderr io.Writer, ready func(addr string)) error {
	fs := flag.NewFlagSet("cobra-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		maxWorkers  = fs.Int("max-workers", 0, "solver worker pool shared by all requests (0 = all cores)")
		maxResident = fs.Int("max-resident-datasets", 0, "out-of-core datasets that keep un-spilled shards in memory; the least recently used beyond it are spilled entirely, for good (0 = unlimited)")
		spillDir    = fs.String("spill-dir", "", "directory for out-of-core state (default: system temp)")
		drain       = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	srv := serve.New(serve.Config{
		MaxWorkers:          *maxWorkers,
		MaxResidentDatasets: *maxResident,
		SpillDir:            *spillDir,
	})
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		BaseContext:       func(net.Listener) context.Context { return ctx },
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}

	fmt.Fprintf(stdout, "cobra-serve listening on %s\n", ln.Addr())
	if ready != nil {
		ready(ln.Addr().String())
	}

	errc := make(chan error, 1)
	//cobra:goroutine daemon accept loop; lifetime bounded by Serve returning on listener close
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(stdout, "cobra-serve shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
