// Command advisord serves the placement-advisor engine over HTTP: a
// cached, deduplicated, batch-parallel what-if service answering the
// same query cells the repro whatif, advisor and placement subcommands
// evaluate, against the same persistent cache directory.
//
// Usage:
//
//	advisord [-addr 127.0.0.1:8791] [-cache .advisorcache]
//
// The server reads a request's headers within 5 s and its body within
// 30 s, and closes a connection idle for two minutes, so a silent client
// cannot hold one open; answers have no deadline (a cold sweep takes as
// long as its simulations). On SIGINT or SIGTERM it stops accepting and
// gives in-flight requests 30 s to finish.
//
// Example session against a running server:
//
//	curl -s localhost:8791/v1/eval -d '{"workload":"pagerank","size":"tiny","placement":"tier:2"}'
//	curl -s localhost:8791/v1/sweep -d '{"sizes":["tiny"],"placements":["tier:0","tier:2"],"workers":4}'
//	curl -s localhost:8791/v1/recommend -d '{"workload":"lda","size":"tiny","min_nvm_share":0.5}'
//	curl -s localhost:8791/v1/stats
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/advisor"
	"repro/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8791", "listen address")
	cacheDir := flag.String("cache", advisor.DefaultCacheDir, "advisor result-cache directory (empty disables)")
	flag.Parse()

	eng := advisor.NewEngine(advisor.Options{CacheDir: *cacheDir, Registry: telemetry.NewRegistry()})
	if err := serve(*addr, *cacheDir, eng, advisor.NewServer(eng)); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func serve(addr, cacheDir string, eng *advisor.Engine, handler http.Handler) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("advisord: listen: %w", err)
	}
	if cacheDir == "" {
		cacheDir = "(disabled)"
	}
	fmt.Fprintf(os.Stderr, "advisord: serving on http://%s (engine %s, cache %s)\n",
		ln.Addr(), eng.EngineHash()[:12], cacheDir)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serveUntil(ctx, newServer(handler), ln)
}

// shutdownGrace is how long in-flight requests get to finish once the
// server has been told to stop.
const shutdownGrace = 30 * time.Second

// newServer is the http.Server the handler is served with. There is no
// WriteTimeout: a cold sweep's answer takes as long as its simulations.
func newServer(handler http.Handler) *http.Server {
	return &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// serveUntil serves on ln until ctx is done, then shuts down: the
// listener closes at once and in-flight requests get shutdownGrace to
// finish. It returns nil after a clean shutdown.
func serveUntil(ctx context.Context, srv *http.Server, ln net.Listener) error {
	shut := make(chan error, 1)
	stop := context.AfterFunc(ctx, func() {
		grace, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		shut <- srv.Shutdown(grace)
	})
	err := srv.Serve(ln) // http.ErrServerClosed as soon as Shutdown is called
	if stop() {
		return err // Serve failed on its own; Shutdown never ran
	}
	return <-shut
}
