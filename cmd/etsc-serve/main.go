// Command etsc-serve hosts trained early classifiers over the JSON HTTP
// API in internal/serve. Models come from files written by
// etsc-run -save-model.
//
// Usage examples:
//
//	etsc-run -algorithm ECEC -dataset PowerCons -save-model models/ecec.goetsc
//	etsc-serve -models models/ -addr :8080
//	curl -s localhost:8080/v1/models
//	curl -s -X POST localhost:8080/v1/classify \
//	  -d '{"model":"ecec","values":[[0.1,0.4,0.9,1.2]]}'
//
// With -fleet N the same address serves a replica fleet: N in-process
// serving replicas (each with its own copy of every model) behind a
// consistent-hash session router, optionally joined by remote backends
// via -fleet-backends. Streaming sessions pin to one replica by hash of
// their session ID; one-shot classification load-balances round-robin;
// reload/rollback fan out to every replica.
//
// The server shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// finish (bounded by -timeout) before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/goetsc/goetsc/internal/fleet"
	"github.com/goetsc/goetsc/internal/ingest"
	"github.com/goetsc/goetsc/internal/obs"
	"github.com/goetsc/goetsc/internal/serve"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:8080", "listen address")
		models        = flag.String("models", "", "comma-separated model files and/or directories of *.goetsc files")
		maxBody       = flag.Int64("max-body", 1<<20, "maximum request body size in bytes")
		timeout       = flag.Duration("timeout", 30*time.Second, "per-request handling deadline")
		sessionTTL    = flag.Duration("session-ttl", 10*time.Minute, "idle streaming sessions older than this are evicted")
		maxSessions   = flag.Int("max-sessions", 0, "live streaming session bound per replica (0 = default 4096)")
		sloTarget     = flag.Duration("slo-target", 25*time.Millisecond, "per-endpoint latency objective evaluated over rolling windows")
		sloObjective  = flag.Float64("slo-objective", 0.99, "fraction of requests that must complete under -slo-target")
		pprofMux      = flag.Bool("pprof", false, "serve /debug/pprof on the main listener (outside the request deadline)")
		reloadAPI     = flag.Bool("reload-api", false, "enable POST /v1/models/{name}/reload and /rollback (hot swap under traffic)")
		tenantRPS     = flag.Float64("tenant-rps", 0, "per-tenant request rate limit (tokens/s; 0 disables tenant quotas)")
		tenantBurst   = flag.Int("tenant-burst", 0, "per-tenant token-bucket burst (default 2x -tenant-rps)")
		queueDepth    = flag.Int("queue-depth", 0, "admission queue bound; waiting requests beyond it are shed with 503 (default 4x workers)")
		queueTimeout  = flag.Duration("queue-timeout", time.Second, "longest a request may wait for a classification slot before it is shed")
		brkThreshold  = flag.Float64("breaker-threshold", 0.5, "classify failure rate that opens a model's circuit breaker (<=0 or >1 disables)")
		brkSamples    = flag.Int("breaker-min-samples", 10, "window population required before the breaker can open")
		brkWindow     = flag.Duration("breaker-window", 10*time.Second, "failure-rate observation window")
		brkCooldown   = flag.Duration("breaker-cooldown", 5*time.Second, "how long an open breaker rejects before probing half-open")
		brkProbes     = flag.Int("breaker-probes", 3, "half-open successes required to re-close the breaker")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "longest to wait for in-flight requests when draining on SIGTERM")
		ingestAPI     = flag.Bool("ingest", false, "enable POST /v1/ingest: NDJSON entity event streams windowed and classified continuously (?model= selects the model)")
		ingestShards  = flag.Int("ingest-shards", 0, "entity demux shards per ingest stream (0 = pipeline default)")
		fleetN        = flag.Int("fleet", 0, "serve through a replica fleet: this many in-process serving replicas behind a consistent-hash session router (0 = single server)")
		fleetBackends = flag.String("fleet-backends", "", "comma-separated base URLs of remote serving replicas to attach behind the fleet router (implies fleet mode)")
	)
	var obsFlags obs.Flags
	obsFlags.Register(flag.CommandLine)
	flag.Parse()

	col, obsCleanup, err := obsFlags.Start()
	if err != nil {
		fail(err)
	}
	defer obsCleanup()

	// The stats plane (/metrics, /v1/stats, /debug/etsc) needs a live
	// registry even when -metrics-out wasn't given: a server's metrics are
	// scraped, not written on exit.
	if col.Registry() == nil {
		reg := obs.NewRegistry()
		journal := col.Journal()
		col = obs.New(obs.Options{Journal: journal, Metrics: reg})
		journal.OnError(func(err error) {
			fmt.Fprintf(os.Stderr, "obs: journal write failed, further records dropped: %v\n", err)
			reg.Counter("etsc_journal_errors_total",
				"Journal write failures; after the first, records are dropped.").Inc()
		})
	}

	// On the flag surface <=0 disables breakers, but Config treats 0 as
	// "use the default": translate an explicit 0 into a disabling value.
	threshold := *brkThreshold
	if threshold == 0 {
		threshold = -1
	}

	cfg := serve.Config{
		MaxBodyBytes:      *maxBody,
		RequestTimeout:    *timeout,
		SessionTTL:        *sessionTTL,
		MaxSessions:       *maxSessions,
		SLOTarget:         *sloTarget,
		SLOObjective:      *sloObjective,
		ReloadAPI:         *reloadAPI,
		TenantRPS:         *tenantRPS,
		TenantBurst:       *tenantBurst,
		QueueDepth:        *queueDepth,
		QueueTimeout:      *queueTimeout,
		BreakerThreshold:  threshold,
		BreakerMinSamples: *brkSamples,
		BreakerWindow:     *brkWindow,
		BreakerCooldown:   *brkCooldown,
		BreakerProbes:     *brkProbes,
		Obs:               col,
	}

	fleetMode := *fleetN > 0 || *fleetBackends != ""
	if fleetMode && *ingestAPI {
		failWith(obsCleanup, fmt.Errorf("-ingest is not supported with -fleet: the ingest pipeline binds to one replica's registry"))
	}

	var (
		replicas []*serve.Server // local replicas (or the single server)
		router   *fleet.Router
		handler  http.Handler
	)
	if fleetMode {
		n := *fleetN
		if n <= 0 && *fleetBackends == "" {
			n = 1
		}
		// Local replicas share one obs collector: their Prometheus
		// counters merge into one registry, which is the fleet rollup
		// /metrics serves; per-replica detail comes from /v1/stats.
		router = fleet.New(fleet.Config{
			SessionTTL:   *sessionTTL,
			MaxBodyBytes: *maxBody,
			SLOTarget:    *sloTarget,
			SLOObjective: *sloObjective,
			ReloadAPI:    *reloadAPI,
			Obs:          col,
		})
		for i := 0; i < n; i++ {
			srv := serve.New(cfg)
			loadModels(srv, *models, obsCleanup)
			replicas = append(replicas, srv)
			router.Add(fleet.NewLocal(fmt.Sprintf("r%d", i), srv))
		}
		for i, base := range splitList(*fleetBackends) {
			router.Add(fleet.NewRemote(fmt.Sprintf("b%d", i), base))
		}
		handler = router.Handler()
	} else {
		srv := serve.New(cfg)
		loadModels(srv, *models, obsCleanup)
		replicas = append(replicas, srv)
		handler = srv.Handler()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// The API handler sits under the per-request TimeoutHandler; pprof
	// mounts on the parent mux so long profile captures (e.g.
	// /debug/pprof/profile?seconds=30) escape the request deadline.
	root := http.NewServeMux()
	root.Handle("/", handler)
	if *pprofMux {
		obs.RegisterPprof(root)
	}
	if *ingestAPI {
		srv := replicas[0]
		// The ingest endpoint streams NDJSON decisions with per-line
		// flushes, so it mounts beside the TimeoutHandler (which buffers
		// whole responses), not under it — the same placement as pprof.
		root.Handle("/v1/ingest", ingest.Handler(func(r *http.Request, onDecision func(ingest.Decision)) (*ingest.Pipeline, error) {
			model := r.URL.Query().Get("model")
			if model == "" {
				if ms := srv.Models(); len(ms) == 1 {
					model = ms[0].Name
				} else {
					return nil, fmt.Errorf("?model= is required with %d models loaded", len(ms))
				}
			}
			return ingest.New(ingest.Config{
				Registry: srv, Model: model, Shards: *ingestShards,
				OnDecision: onDecision, Obs: col,
			})
		}))
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           root,
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() {
		ticker := time.NewTicker(*sessionTTL / 2)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				evicted := 0
				for _, srv := range replicas {
					evicted += srv.EvictIdleSessions()
				}
				if router != nil {
					// Local replicas free their pins through the eviction
					// callback; this sweep covers remote-backed sessions.
					router.EvictIdlePins()
				}
				if evicted > 0 {
					col.Emit("sessions_evicted", map[string]any{"count": evicted})
				}
			}
		}
	}()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	if router != nil {
		fmt.Printf("etsc-serve listening on %s: fleet of %d replicas (%s), %d models each\n",
			*addr, len(router.Replicas()), strings.Join(router.Replicas(), ","), len(replicas[0].Models()))
	} else {
		fmt.Printf("etsc-serve listening on %s (%d models)\n", *addr, len(replicas[0].Models()))
	}
	fmt.Printf("stats plane: /metrics (Prometheus), /v1/stats (JSON), /debug/etsc (dashboard); SLO %s @ %.2f%%\n",
		*sloTarget, *sloObjective*100)
	if *pprofMux {
		fmt.Println("pprof: /debug/pprof on the main listener")
	}
	if *ingestAPI {
		fmt.Println("ingest: POST /v1/ingest (NDJSON entity event stream)")
	}

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			failWith(obsCleanup, err)
		}
	case <-ctx.Done():
		// Graceful drain: stop admitting work (503 + Connection: close,
		// meta routes keep answering so probes see the drain), flush
		// in-flight requests, then close the listener.
		fmt.Println("etsc-serve: draining")
		col.Emit("server_shutdown", map[string]any{"reason": "signal"})
		drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainTimeout)
		var drainErr error
		if router != nil {
			drainErr = router.Drain(drainCtx)
		} else {
			drainErr = replicas[0].Drain(drainCtx)
		}
		if drainErr != nil {
			fmt.Fprintf(os.Stderr, "etsc-serve: drain incomplete: %v\n", drainErr)
		}
		cancelDrain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			failWith(obsCleanup, err)
		}
	}
}

// loadModels loads every -models path into one server, failing the
// process on any error.
func loadModels(srv *serve.Server, models string, cleanup func()) {
	if models == "" {
		failWith(cleanup, fmt.Errorf("-models is required (files or directories of *.goetsc)"))
	}
	for _, path := range splitList(models) {
		info, err := os.Stat(path)
		if err != nil {
			failWith(cleanup, err)
		}
		if info.IsDir() {
			names, err := srv.LoadDir(path)
			if err != nil {
				failWith(cleanup, err)
			}
			for _, n := range names {
				fmt.Printf("loaded model %s from %s\n", n, path)
			}
		} else {
			name, err := srv.LoadFile(path)
			if err != nil {
				failWith(cleanup, err)
			}
			fmt.Printf("loaded model %s from %s\n", name, path)
		}
	}
	if len(srv.Models()) == 0 {
		failWith(cleanup, fmt.Errorf("no models loaded from %q", models))
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "etsc-serve: %v\n", err)
	os.Exit(1)
}

// failWith flushes observability sinks before exiting so a failed start
// still leaves a complete journal.
func failWith(cleanup func(), err error) {
	fmt.Fprintf(os.Stderr, "etsc-serve: %v\n", err)
	cleanup()
	os.Exit(1)
}
