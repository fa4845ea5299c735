// Command wsn-serve runs the HTTP batch-evaluation service: the whole model
// surface of the repository — analytical evaluations, batches, the §5 case
// study, the Fig. 7/8 sweeps, the discrete-event simulator with parallel
// replications and the registered experiment drivers — behind a JSON API
// with a server-wide worker pool and a bounded contention cache. The
// unified POST /v2/query and /v2/query/stream endpoints accept one
// declarative Query document per computation (the same type cmd/wsn-query
// drives locally); the per-endpoint v1 routes are maintained but frozen.
//
// Usage:
//
//	wsn-serve -addr :8080 -workers 8 -cache-size 4096 -timeout 2m
//
// The server drains in-flight requests on SIGINT/SIGTERM before exiting.
// See the package documentation of internal/service for the endpoint list
// and doc.go for example invocations.
//
// Observability: GET /metrics serves the Prometheus text format (see the
// internal/service package doc for the family list). Request logging is
// structured; -log-format selects text (default) or json records and
// -log-level the threshold (debug, info, warn, error). -quiet disables
// request logging entirely.
//
// Profiling: -pprof 127.0.0.1:6060 exposes the standard net/http/pprof
// endpoints (/debug/pprof/profile, /heap, /allocs, …) on a separate
// listener, so production profiles of the simulation cores can be captured
// without widening the public API surface:
//
//	wsn-serve -addr :8080 -pprof 127.0.0.1:6060
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=30
//
// Distributed execution: -peers turns the server into a coordinator that
// shards /v2/query plans across a fleet of plain wsn-serve workers and
// merges the results byte-identically to local execution, surviving worker
// timeouts, errors and crashes by re-dispatching (see internal/dist):
//
//	wsn-serve -addr :8081 &                       # worker
//	wsn-serve -addr :8082 &                       # worker
//	wsn-serve -addr :8080 \
//	  -peers http://127.0.0.1:8081,http://127.0.0.1:8082
//
// -shard-size, -shard-timeout and -dist-attempts tune the sharding and
// retry policy; -timeout bounds each v2 query end to end too (answered
// with a structured 504 when it runs out mid-execution). Workers need no
// flags: any wsn-serve serves /v2/tasks. During drain the server flips
// /readyz and /v2/tasks to 503 first, so coordinators evict it before the
// listener closes.
//
// Result store: every server keeps a content-addressed result store
// (internal/store) keyed by the SHA-256 of the query's canonical form.
// Identical queries are answered from the store in O(1), interrupted
// streams resume from persisted per-task results, and in coordinator mode
// stored shards are adopted instead of dispatched. -store-mem bounds the
// in-memory tier in bytes (default 256 MiB; 0 disables the store entirely,
// including the disk tier); -store-dir adds a persistent on-disk tier that
// survives restarts:
//
//	wsn-serve -addr :8080 -store-mem 134217728 -store-dir /var/lib/wsn/store
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"dense802154/internal/buildinfo"
	"dense802154/internal/dist"
	"dense802154/internal/service"
	"dense802154/internal/store"
)

// pprofHandler builds the debug mux by hand (instead of blank-importing
// net/http/pprof) so the profiling endpoints never leak onto the service's
// own handler.
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", runtime.NumCPU(), "server-wide worker-token budget shared by all requests")
		cacheSize = flag.Int("cache-size", 4096, "max entries of the shared contention cache, LRU-evicted (0 = unbounded)")
		timeout   = flag.Duration("timeout", 2*time.Minute, "per-request computation deadline (0 = none)")
		maxBody   = flag.Int64("max-body", 8<<20, "request body cap in bytes")
		quiet     = flag.Bool("quiet", false, "disable per-request logging")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain window")
		pprofAddr = flag.String("pprof", "", "expose net/http/pprof on this address (e.g. 127.0.0.1:6060; empty = disabled)")
		logFormat = flag.String("log-format", "text", "request log format: text or json")
		logLevel  = flag.String("log-level", "info", "request log threshold: debug, info, warn or error")
		version   = flag.Bool("version", false, "print build version and exit")

		peers        = flag.String("peers", "", "comma-separated worker base URLs; non-empty enables coordinator mode for /v2/query")
		shardSize    = flag.Int("shard-size", 0, "tasks per dispatched shard (0 = one shard per worker)")
		shardTimeout = flag.Duration("shard-timeout", 0, "per-shard deadline before re-dispatch (0 = 60s)")
		distAttempts = flag.Int("dist-attempts", 0, "dispatch attempts per index range before local fallback (0 = 4)")
		faultExit    = flag.Int("fault-exit-after-tasks", 0, "TESTING: exit(3) after serving this many /v2/tasks lines")

		storeMem = flag.Int64("store-mem", store.DefaultMaxBytes, "in-memory result-store budget in bytes (0 = store disabled, even with -store-dir)")
		storeDir = flag.String("store-dir", "", "directory of the on-disk result-store tier (empty = memory only)")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("wsn-serve"))
		return
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "wsn-serve: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	opts := &slog.HandlerOptions{Level: level}
	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, opts)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, opts)
	default:
		fmt.Fprintf(os.Stderr, "wsn-serve: bad -log-format %q (want text or json)\n", *logFormat)
		os.Exit(2)
	}

	logger := log.New(os.Stderr, "wsn-serve: ", log.LstdFlags)
	cfg := service.Config{
		Workers:             *workers,
		CacheLimit:          *cacheSize,
		RequestTimeout:      *timeout,
		MaxBodyBytes:        *maxBody,
		FaultExitAfterTasks: *faultExit,
	}
	if !*quiet {
		cfg.Logger = slog.New(handler)
	}
	var st *store.Store
	if *storeMem > 0 {
		var err error
		st, err = store.New(store.Config{MaxBytes: *storeMem, Dir: *storeDir})
		if err != nil {
			fmt.Fprintf(os.Stderr, "wsn-serve: -store-dir %q: %v\n", *storeDir, err)
			os.Exit(2)
		}
		cfg.Store = st
		if *storeDir != "" {
			logger.Printf("result store: %d MiB memory over %s", *storeMem>>20, *storeDir)
		}
	}
	if *peers != "" {
		var fleet []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				fleet = append(fleet, strings.TrimRight(p, "/"))
			}
		}
		dopts := dist.Options{
			Workers:      fleet,
			ShardSize:    *shardSize,
			ShardTimeout: *shardTimeout,
			MaxAttempts:  *distAttempts,
			Logger:       slog.New(handler),
		}
		if st != nil {
			// The coordinator shares the server's store: prefilled shards
			// are never dispatched, merged results seed the next query.
			dopts.Store = st
		}
		cfg.Distributor = dist.New(dopts)
		logger.Printf("coordinator mode: %d workers %v", len(fleet), fleet)
	}

	app := service.NewServer(cfg)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           app,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var pprofSrv *http.Server
	if *pprofAddr != "" {
		pprofSrv = &http.Server{
			Addr:              *pprofAddr,
			Handler:           pprofHandler(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("pprof listener: %v", err)
			}
		}()
		logger.Printf("pprof on http://%s/debug/pprof/", *pprofAddr)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logger.Printf("listening on %s (workers=%d cache=%d timeout=%v)",
		*addr, *workers, *cacheSize, *timeout)

	select {
	case err := <-errCh:
		logger.Fatal(err)
	case <-ctx.Done():
	}

	logger.Printf("shutting down (drain %v)", *drain)
	app.SetReady(false) // flip /readyz and /v2/tasks first so coordinators evict us
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if pprofSrv != nil {
		_ = pprofSrv.Close()
	}
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Printf("forced shutdown: %v", err)
		_ = srv.Close()
		os.Exit(1)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	logger.Println("bye")
}
