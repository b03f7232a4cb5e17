// Command serve exposes the scenario registry as an HTTP service: listing,
// cached single runs, and streaming parameter sweeps (NDJSON). It is the
// network face of the v2 client API; every request is cancellable and an
// interrupt drains in-flight sweeps cooperatively.
//
// One binary plays every fabric role. A plain serve is a worker; -store
// adds the persistent result tier; -shard turns the instance into a
// coordinator that dispatches sweeps over its workers — a request per cell,
// or with -warm a request per group of cells sharing a simulated prefix:
//
//	serve                          # listen on :8791
//	serve -addr :9000 -workers 8   # bounded sweep pool
//	serve -cache 2048              # larger LRU result cache
//	serve -warm                    # warm-start sweeps from shared prefixes
//	serve -store /var/lib/gasperleak  # disk-backed result store
//	serve -store /var/lib/gasperleak -checkpoint-every 500  # crash-resumable long cells
//	serve -shard http://w1:8791,http://w2:8791  # coordinate two workers
//
//	curl localhost:8791/scenarios
//	curl -X POST localhost:8791/run -d '{"scenario":"5.2.1","params":{"beta0":0.2}}'
//	curl -N -X POST localhost:8791/sweep -d '{"scenario":"leaksim","sweep":"beta0=0.1,0.2,0.3"}'
//	curl localhost:8791/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8791", "listen address (use :0 for an ephemeral port; the resolved address is printed)")
	workers := flag.Int("workers", 0, "default sweep worker pool size (0 = all CPUs)")
	cache := flag.Int("cache", server.DefaultCacheSize, "LRU result cache entries (negative disables caching)")
	warm := flag.Bool("warm", false, `warm-start sweeps from shared simulation prefixes by default (per-request "warm" overrides)`)
	storeDir := flag.String("store", "", "persistent result store directory (empty disables the disk tier)")
	ckptEvery := flag.Int("checkpoint-every", 0, "mid-cell checkpoint interval in simulated epochs for long-horizon sweep cells, persisted in the -store directory so killed or drained cells resume instead of recomputing (0 = engine default, negative disables; no effect without -store)")
	shard := flag.String("shard", "", "comma-separated worker base URLs; non-empty makes this instance a sweep coordinator")
	shardInflight := flag.Int("shard-inflight", 0, "concurrently dispatched units (open requests: one cell each, or with -warm one shared-prefix group of cells) per worker (0 = default)")
	cellTimeout := flag.Duration("cell-timeout", 0, "longest wait for a dispatched unit's next cell before its worker is retired and the cells still owed are requeued (0 = unbounded)")
	queue := flag.Int("queue", 0, "admission bound on queued+running cells, 429 beyond it (0 = default, negative = unlimited)")
	maxBody := flag.Int64("max-body", 0, "request body byte limit, 413 beyond it (0 = default 1MiB, negative = unlimited)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := server.Config{
		Workers:          *workers,
		CacheSize:        *cache,
		WarmStart:        *warm,
		StoreDir:         *storeDir,
		CheckpointEvery:  *ckptEvery,
		ShardInflight:    *shardInflight,
		ShardCellTimeout: *cellTimeout,
		QueueDepth:       *queue,
		MaxBodyBytes:     *maxBody,
	}
	if *shard != "" {
		cfg.Shards = strings.Split(*shard, ",")
	}
	if err := run(ctx, *addr, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, addr string, cfg server.Config) error {
	s, err := server.New(cfg)
	if err != nil {
		return err
	}
	// Bind before announcing, so ":0" callers (integration tests, ad-hoc
	// fabrics) can scrape the real port from the first stdout line.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		s.Close()
		return err
	}
	httpSrv := &http.Server{
		Handler: s.Handler(),
		// Derive every request context from the signal context, so an
		// interrupt cancels in-flight sweeps through the engine instead
		// of waiting out their full grids.
		BaseContext: func(net.Listener) context.Context { return ctx },
		// Slow-client bounds: a stalled request line or body cannot pin a
		// connection forever. Responses stay unbounded — sweep streams
		// legitimately run long.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	role := "worker"
	if len(cfg.Shards) > 0 {
		role = fmt.Sprintf("coordinator of %d workers", len(cfg.Shards))
	}
	fmt.Printf("serve: listening on %s (%s, workers=%d, cache=%d, warm=%t, store=%q)\n",
		ln.Addr(), role, cfg.Workers, cfg.CacheSize, cfg.WarmStart, cfg.StoreDir)

	select {
	case err := <-errc:
		s.Close()
		return err
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := httpSrv.Shutdown(shutCtx)
		// Close the store only after the drain: in-flight requests may
		// still be writing results through it.
		if cerr := s.Close(); err == nil && cerr != nil {
			err = cerr
		}
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		return nil
	}
}
