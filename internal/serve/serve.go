// Package serve exposes trained early classifiers over a JSON HTTP API —
// the online half of the ETSC framework. One-shot classification mirrors
// the batch evaluator; streaming sessions mirror the paper's online
// semantics: a client feeds time points incrementally and the server
// answers "pending" until the early classifier commits.
//
// A streamed decision is only reported once it is final: the classifier
// committed strictly inside the data received so far (consumed < length,
// so no padded or truncated tail influenced it — every framework
// algorithm's decision at a prefix depends only on that prefix), or the
// series reached the model's full training length. This makes streamed
// decisions byte-identical to an offline Classify of the complete
// instance, which the load generator asserts.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/goetsc/goetsc/internal/core"
	"github.com/goetsc/goetsc/internal/evict"
	"github.com/goetsc/goetsc/internal/obs"
	"github.com/goetsc/goetsc/internal/persist"
	"github.com/goetsc/goetsc/internal/sched"
)

// Config controls one server instance. The zero value serves with
// sensible limits and no instrumentation.
type Config struct {
	// MaxBodyBytes caps request bodies; larger requests get 413.
	// Default 1 MiB.
	MaxBodyBytes int64
	// RequestTimeout bounds one request's handling. Default 30s.
	RequestTimeout time.Duration
	// SessionTTL evicts idle streaming sessions. Default 10m.
	SessionTTL time.Duration
	// MaxSessions bounds live sessions; creation beyond it gets 503.
	// Default 4096.
	MaxSessions int
	// Workers bounds concurrent classification work. 0 uses the shared
	// scheduler pool's worker count (sched.Shared()).
	Workers int
	// SLOTarget is the per-endpoint latency objective the stats plane
	// evaluates over rolling windows. Default 25ms.
	SLOTarget time.Duration
	// SLOObjective is the fraction of requests that must complete under
	// SLOTarget (the rest is error budget). Default 0.99.
	SLOObjective float64
	// ReloadAPI enables the model control plane: POST
	// /v1/models/{name}/reload and /rollback. Off by default — hot swap
	// is an operator surface, not a tenant one.
	ReloadAPI bool
	// TenantRPS, when positive, rate-limits work-plane requests per
	// tenant (X-Etsc-Tenant header, ?tenant= query, "default" otherwise)
	// with a token bucket refilled at this rate; over-quota requests get
	// 429 + Retry-After. Default 0: no tenant quotas.
	TenantRPS float64
	// TenantBurst caps a tenant's token bucket. Default 2×TenantRPS.
	TenantBurst int
	// QueueDepth bounds requests waiting for a classification slot;
	// arrivals beyond it are shed with 503. Default 4×Workers.
	QueueDepth int
	// QueueTimeout bounds how long an admitted request may wait for a
	// slot before it is shed with 503 — the knob that keeps admitted
	// latency flat under overload. Default 1s.
	QueueTimeout time.Duration
	// BreakerThreshold is the classify failure rate that opens a model's
	// circuit breaker. 0 means the default 0.5; values outside (0,1]
	// disable breakers.
	BreakerThreshold float64
	// BreakerMinSamples is the window population required before the
	// failure rate can open the breaker. Default 10.
	BreakerMinSamples int
	// BreakerWindow is the failure-rate observation window. Default 10s.
	BreakerWindow time.Duration
	// BreakerCooldown is how long an open breaker rejects before probing
	// half-open. Default 5s.
	BreakerCooldown time.Duration
	// BreakerProbes is the run of half-open successes that re-closes the
	// breaker. Default 3.
	BreakerProbes int
	// ClassifyHook, when set, runs before every classify/advance with the
	// model name — the chaos suite's entry point into the serving path
	// (injected latency, errors, panics). A returned error fails the
	// request with 500 and counts against the model's breaker.
	ClassifyHook func(model string) error
	// Clock overrides the server's time source for session activity
	// stamps and TTL eviction. The ingest subsystem shares the same
	// injectable-clock eviction policy, so chaos tests can drive both
	// sweeps deterministically from one fake clock. nil means time.Now.
	Clock evict.Clock
	// Obs receives request metrics and journal events; nil is a no-op.
	Obs *obs.Collector
}

func (c Config) withDefaults() Config {
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 10 * time.Minute
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 4096
	}
	if c.Workers <= 0 {
		c.Workers = sched.Shared().Workers()
	}
	if c.SLOTarget <= 0 {
		c.SLOTarget = 25 * time.Millisecond
	}
	if c.SLOObjective <= 0 || c.SLOObjective >= 1 {
		c.SLOObjective = 0.99
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = time.Second
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 0.5
	}
	if c.BreakerMinSamples <= 0 {
		c.BreakerMinSamples = 10
	}
	if c.BreakerWindow <= 0 {
		c.BreakerWindow = 10 * time.Second
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.BreakerProbes <= 0 {
		c.BreakerProbes = 3
	}
	return c
}

// breakerConfig extracts the breaker tuning shared by every model entry.
func (c Config) breakerConfig() breakerConfig {
	return breakerConfig{
		Threshold: c.BreakerThreshold, MinSamples: c.BreakerMinSamples,
		Window: c.BreakerWindow, Cooldown: c.BreakerCooldown, Probes: c.BreakerProbes,
	}
}

// ModelInfo is one entry of the /v1/models listing.
type ModelInfo struct {
	Name       string `json:"name"`
	Algorithm  string `json:"algorithm"`
	Dataset    string `json:"dataset,omitempty"`
	Length     int    `json:"length,omitempty"`
	NumVars    int    `json:"num_vars,omitempty"`
	NumClasses int    `json:"num_classes,omitempty"`
	// Version counts hot swaps: 1 at registration, +1 per reload;
	// rollback re-serves the previous version's number.
	Version int `json:"version,omitempty"`
	// Checksum is the persist envelope's verified FNV-1a trailer in hex;
	// empty for models registered in-memory.
	Checksum string `json:"checksum,omitempty"`
}

// model pairs a loaded classifier with its metadata. Classify
// implementations reuse internal scratch buffers, so classic calls are
// serialized per model. Streaming sessions instead hold a native
// incremental cursor where the algorithm provides one: cursors read only
// shared fitted state and advance lock-free, and their per-instance scan
// state amortizes across batches. One-shot requests stay on the classic
// path — with no batches to amortize over, cursor construction is pure
// overhead.
type model struct {
	info  ModelInfo
	algo  core.EarlyClassifier
	stats *modelStats // resolved once at registration: no map+mutex on the hot path
	mu    sync.Mutex

	// Version provenance, stamped when the registry built this version.
	checksum uint64
	loadedAt time.Time

	// bufs is the model's response arena: pooled render buffers sized at
	// registration so steady-state responses never touch the allocator.
	bufs     sync.Pool
	arenaCap int
}

// respBuf wraps a render buffer so pooling it doesn't re-box the slice
// header on every Put.
type respBuf struct{ b []byte }

func (m *model) getBuf() *respBuf {
	if rb, _ := m.bufs.Get().(*respBuf); rb != nil {
		return rb
	}
	return &respBuf{b: make([]byte, 0, m.arenaCap)}
}

// classify answers a one-shot request through the serialized classic path.
func (m *model) classify(values [][]float64) (label, consumed int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.algo.Classify(tsInstance(values))
}

// writeClassify renders and writes the one-shot response from the
// model's arena — byte-identical to the json.Encoder output it replaced.
func (m *model) writeClassify(w http.ResponseWriter, label, consumed int) error {
	rb := m.getBuf()
	rb.b = renderClassify(rb.b[:0], m.info.Name, m.info.Algorithm, label, consumed)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, err := w.Write(rb.b)
	m.bufs.Put(rb)
	return err
}

// Server routes the JSON API. Create with New, register models with
// AddModel/LoadFile/LoadDir, then mount Handler.
type Server struct {
	cfg     Config
	sem     chan struct{} // bounds concurrent classification work
	tenants *tenantLimiter

	mu       sync.RWMutex
	models   map[string]*modelEntry
	sessions map[string]*session
	ready    atomic.Bool

	stats *serverStats

	// Admission/drain state: queued counts requests waiting in the
	// admission queue, inflightWork counts admitted work-plane requests
	// (Drain waits on it), draining flips once and never back.
	queued       atomic.Int64
	inflightWork atomic.Int64
	draining     atomic.Bool

	// Shed accounting: the atomics are the /v1/stats truth (they work
	// with no metrics registry configured); shedProm mirrors them into
	// Prometheus. Reload/rollback counters live per entry; these are the
	// fleet-level Prometheus aggregates.
	shedCounts   [numShedReasons]atomic.Uint64
	shedProm     [numShedReasons]*obs.Counter
	reloadOK     *obs.Counter
	reloadFailed *obs.Counter
	rollbacks    *obs.Counter

	// reqPool recycles decoded one-shot request bodies; encoding/json
	// reuses the retained Values capacity, so steady-state decodes stop
	// growing fresh matrices per request.
	reqPool sync.Pool

	// onSessionEvict, when set, observes TTL evictions (not client
	// closes): the fleet router registers itself here so an evicted
	// session also frees its hash-slot pin. Guarded by mu.
	onSessionEvict func(sessionID string)
}

// SetOnSessionEvict registers fn to run (outside the server's locks)
// for every session dropped by EvictIdleSessions.
func (s *Server) SetOnSessionEvict(fn func(sessionID string)) {
	s.mu.Lock()
	s.onSessionEvict = fn
	s.mu.Unlock()
}

// New returns an empty server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Obs.Registry()
	s := &Server{
		cfg:      cfg,
		sem:      make(chan struct{}, cfg.Workers),
		tenants:  newTenantLimiter(cfg.TenantRPS, cfg.TenantBurst),
		models:   map[string]*modelEntry{},
		sessions: map[string]*session{},
		stats:    newServerStats(reg, cfg.SLOTarget, cfg.SLOObjective),
	}
	for i, reason := range shedReasonNames {
		s.shedProm[i] = reg.Counter("etsc_serve_shed_total",
			"Requests shed before classification, by reason.",
			obs.Label{Key: "reason", Value: reason})
	}
	s.reloadOK = reg.Counter("etsc_serve_reloads_total",
		"Successful model hot reloads.")
	s.reloadFailed = reg.Counter("etsc_serve_reload_failures_total",
		"Rejected model reloads — validation failed, old model kept serving.")
	s.rollbacks = reg.Counter("etsc_serve_rollbacks_total",
		"Model rollbacks to the retained previous version.")
	return s
}

// now reads the configured clock — time.Now unless a test injected a
// fake clock to drive session eviction deterministically.
func (s *Server) now() time.Time { return s.cfg.Clock.Now() }

// Stats snapshots the live stats plane — what GET /v1/stats serves.
func (s *Server) Stats() StatsSnapshot {
	snap := s.stats.Snapshot()
	snap.Resilience = s.resilienceSnapshot()
	return snap
}

// AddModel registers a trained classifier under name.
func (s *Server) AddModel(name string, algo core.EarlyClassifier, meta persist.Meta) error {
	return s.addModel(name, algo, meta, "", 0)
}

// addModel creates the registry entry for a new model name at version 1.
func (s *Server) addModel(name string, algo core.EarlyClassifier, meta persist.Meta,
	source string, checksum uint64) error {
	if name == "" || algo == nil {
		return fmt.Errorf("serve: model name and classifier are required")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.models[name]; exists {
		return fmt.Errorf("serve: model %q already loaded", name)
	}
	e := &modelEntry{
		name:   name,
		source: source,
		// Pre-create stats so /v1/stats lists idle models too; versions of
		// one name share them, keeping quality telemetry continuous.
		stats:   s.stats.model(name),
		breaker: newBreaker(name, s.cfg.breakerConfig(), s.cfg.Obs.Registry(), s.cfg.Obs.Emit),
	}
	e.cur.Store(s.newModel(name, algo, meta, 1, checksum, e.stats))
	s.models[name] = e
	s.ready.Store(true)
	s.cfg.Obs.Emit("model_loaded", map[string]any{
		"model": name, "algorithm": algo.Name(), "dataset": meta.Dataset,
	})
	return nil
}

// Close is a no-op kept for embedders that pair New with Close: the
// server starts no goroutines of its own (idle-session eviction runs
// when the caller invokes EvictIdleSessions). Safe to call repeatedly.
func (s *Server) Close() {}

// LoadFile loads one persisted model; its name is the file's base name
// without extension. The path is remembered as the entry's source so a
// bodyless reload re-reads it.
func (s *Server) LoadFile(path string) (string, error) {
	algo, meta, fi, err := persist.LoadFileInfo(path)
	if err != nil {
		return "", err
	}
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	return name, s.addModel(name, algo, meta, path, fi.Checksum)
}

// LoadDir loads every *.goetsc file in dir, returning the loaded names.
func (s *Server) LoadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".goetsc") {
			continue
		}
		name, err := s.LoadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return names, err
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Models lists the live version of every loaded model sorted by name.
func (s *Server) Models() []ModelInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ModelInfo, 0, len(s.models))
	for _, e := range s.models {
		out = append(out, e.cur.Load().info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// metaRoutes are the stats plane's own endpoints plus health probes:
// they are traced and counted but kept out of the rolling windows, SLO
// evaluation and the access journal, so scraping the stats never skews
// the stats. They are also never shed: an overloaded or draining server
// must stay observable.
var metaRoutes = map[string]bool{
	"healthz": true, "readyz": true,
	"metrics": true, "stats": true, "dashboard": true,
}

// workRoutes go through admission control (drain gate, tenant quota) and
// the in-flight accounting Drain waits on. The control plane
// (model_reload/model_rollback) is an operator surface: exempt from
// tenant quotas and still usable mid-incident.
var workRoutes = map[string]bool{
	"models": true, "classify": true,
	"session_create": true, "session_points": true,
	"session_get": true, "session_close": true,
}

// Handler returns the API handler with per-request deadlines applied.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.wrap("healthz", s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.wrap("readyz", s.handleReadyz))
	mux.HandleFunc("GET /metrics", s.wrap("metrics", s.handleMetrics))
	mux.HandleFunc("GET /v1/stats", s.wrap("stats", s.handleStats))
	mux.HandleFunc("GET /debug/etsc", s.wrap("dashboard", s.handleDashboard))
	mux.HandleFunc("GET /v1/models", s.wrap("models", s.handleModels))
	mux.HandleFunc("POST /v1/classify", s.wrap("classify", s.handleClassify))
	mux.HandleFunc("POST /v1/sessions", s.wrap("session_create", s.handleSessionCreate))
	mux.HandleFunc("POST /v1/sessions/{id}/points", s.wrap("session_points", s.handleSessionPoints))
	mux.HandleFunc("GET /v1/sessions/{id}", s.wrap("session_get", s.handleSessionGet))
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.wrap("session_close", s.handleSessionClose))
	if s.cfg.ReloadAPI {
		mux.HandleFunc("POST /v1/models/{name}/reload", s.wrap("model_reload", s.handleModelReload))
		mux.HandleFunc("POST /v1/models/{name}/rollback", s.wrap("model_rollback", s.handleModelRollback))
	}
	return http.TimeoutHandler(mux, s.cfg.RequestTimeout, `{"error":"request deadline exceeded"}`)
}

// apiError carries an HTTP status with its message, an optional
// machine-readable kind rendered into the JSON body, and an optional
// Retry-After hint for 429/503 responses.
type apiError struct {
	status     int
	msg        string
	kind       string
	retryAfter time.Duration
}

func (e *apiError) Error() string { return e.msg }

func errf(status int, format string, args ...any) *apiError {
	return &apiError{status: status, msg: fmt.Sprintf(format, args...)}
}

// errk is errf with a machine-readable kind ("quota", "overloaded",
// "breaker_open", the reload failure taxonomy, …).
func errk(status int, kind, format string, args ...any) *apiError {
	return &apiError{status: status, msg: fmt.Sprintf(format, args...), kind: kind}
}

// Errorf builds an error that WriteError renders with status and kind
// (omitted from the body when empty). The fleet router builds its own
// rejections with it.
func Errorf(status int, kind, format string, args ...any) error {
	return errk(status, kind, format, args...)
}

// retryAfterSeconds renders a Retry-After header value: whole seconds,
// rounded up, at least 1.
func retryAfterSeconds(d time.Duration) string {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// wrap instruments one route: trace resolution and echo, request/error
// counters, latency/queue/classify histograms, the in-flight gauge, the
// rolling windows + SLO tracker, the access journal, and uniform JSON
// error rendering. Route-level instruments resolve once, at Handler
// build, so per-request work is counter bumps and window observes.
func (s *Server) wrap(route string, h func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	reg := s.cfg.Obs.Registry()
	routeLbl := obs.Label{Key: "route", Value: route}
	requests := reg.Counter("etsc_serve_requests_total", "Requests by route.", routeLbl)
	gauge := reg.Gauge("etsc_serve_inflight", "Requests currently being handled.")
	// Sub-millisecond buckets: the incremental cursors put session
	// advances well under the old DurationBuckets' first bound.
	latHist := reg.Histogram("etsc_serve_latency_seconds", "Request handling latency by route.",
		obs.ServeBuckets, routeLbl)
	tracked := !metaRoutes[route]
	work := workRoutes[route]
	var rs *RouteStats
	var queueHist, classifyHist *obs.Histogram
	if tracked {
		rs = s.stats.routes.Route(route)
		queueHist = reg.Histogram("etsc_serve_queue_wait_seconds",
			"Wait for a classification slot, by route — queueing pressure separated from compute.",
			obs.ServeBuckets, routeLbl)
		classifyHist = reg.Histogram("etsc_serve_classify_seconds",
			"Time inside Classify/Advance, by route — compute separated from queueing.",
			obs.ServeBuckets, routeLbl)
	}
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		requests.Inc()
		gauge.Add(1)
		defer gauge.Add(-1)

		tc, parent, ctx := TraceRequest(w, r)
		ri := &reqInfo{}
		r = r.WithContext(context.WithValue(ctx, reqInfoKey{}, ri))
		sw := &StatusWriter{ResponseWriter: w}
		r.Body = http.MaxBytesReader(sw, r.Body, s.cfg.MaxBodyBytes)
		var err error
		if work {
			err = s.admit(sw, r)
		}
		if err == nil {
			if work {
				s.inflightWork.Add(1)
			}
			err = h(sw, r)
			if work {
				s.inflightWork.Add(-1)
			}
		}
		if err != nil {
			status := WriteError(sw, err)
			reg.Counter("etsc_serve_errors_total", "Request errors by route and status.",
				routeLbl, obs.Label{Key: "code", Value: fmt.Sprint(status)}).Inc()
		}
		wall := time.Since(start)
		latHist.Observe(wall.Seconds())
		if tracked {
			rs.Observe(wall, sw.Status())
			if ri.worked {
				queueHist.Observe(ri.queue.Seconds())
				classifyHist.Observe(ri.classify.Seconds())
			}
			if s.cfg.Obs.Journal() != nil {
				s.logAccess(route, tc, parent, sw.Status(), wall, ri)
			}
		}
	}
}

// WriteError renders a failed request in the JSON error shape every
// route answers with, and returns the status it wrote. An apiError
// carries its own status, kind and Retry-After; an oversized body is
// 413; a cancelled or expired request is 503; anything else is 500. The
// fleet router renders its errors with it too, so a client cannot tell
// a router's rejection from a replica's.
func WriteError(w http.ResponseWriter, err error) int {
	status := http.StatusInternalServerError
	var ae *apiError
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &ae):
		status = ae.status
		if ae.retryAfter > 0 {
			w.Header().Set("Retry-After", retryAfterSeconds(ae.retryAfter))
		}
	case errors.As(err, &mbe):
		status = http.StatusRequestEntityTooLarge
		err = fmt.Errorf("request body exceeds %d bytes", mbe.Limit)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		status = http.StatusServiceUnavailable
	}
	body := map[string]any{"error": err.Error()}
	if ae != nil && ae.kind != "" {
		body["kind"] = ae.kind
	}
	WriteJSON(w, status, body)
	return status
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) error {
	return WriteJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// handleReadyz is the readiness probe: 200 only when the server has
// models, is not draining, and no model is degraded (open circuit
// breaker, or a reload rejected since the last good swap). Degraded
// state answers 503 with a JSON body naming the causes so orchestrators
// stop routing; healthz stays pure liveness.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) error {
	if !s.ready.Load() {
		return errk(http.StatusServiceUnavailable, "no_models", "no models loaded")
	}
	s.mu.RLock()
	entries := make([]*modelEntry, 0, len(s.models))
	for _, e := range s.models {
		entries = append(entries, e)
	}
	s.mu.RUnlock()
	openBreakers := []string{}
	failedReloads := map[string]*reloadFailure{}
	for _, e := range entries {
		if e.breaker.isOpen() {
			openBreakers = append(openBreakers, e.name)
		}
		if f := e.lastReloadErr.Load(); f != nil {
			failedReloads[e.name] = f
		}
	}
	sort.Strings(openBreakers)
	if s.draining.Load() || len(openBreakers) > 0 || len(failedReloads) > 0 {
		return WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "degraded", "draining": s.draining.Load(),
			"open_breakers": openBreakers, "failed_reloads": failedReloads,
			"models": len(entries),
		})
	}
	return WriteJSON(w, http.StatusOK, map[string]any{"status": "ready", "models": len(entries)})
}

func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) error {
	return WriteJSON(w, http.StatusOK, map[string]any{"models": s.Models()})
}

// classifyRequest is the one-shot request body. Values is indexed
// [variable][time]; a univariate instance is a single inner array.
type classifyRequest struct {
	Model  string      `json:"model"`
	Values [][]float64 `json:"values"`
}

// getClassifyReq hands out a reset pooled request body. Both fields are
// cleared so stale values can never leak into a request that omits them.
func (s *Server) getClassifyReq() *classifyRequest {
	if req, _ := s.reqPool.Get().(*classifyRequest); req != nil {
		req.Model = ""
		req.Values = req.Values[:0]
		return req
	}
	return &classifyRequest{}
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) error {
	req := s.getClassifyReq()
	defer s.reqPool.Put(req)
	if err := decodeJSON(r, req); err != nil {
		return err
	}
	e, ok := s.entry(req.Model)
	if !ok {
		return errf(http.StatusNotFound, "unknown model %q", req.Model)
	}
	// Pin the live version for this whole request; a concurrent hot swap
	// retires it only for requests that resolve after the swap.
	m := e.cur.Load()
	if err := validateValues(req.Values, m.info.NumVars); err != nil {
		return err
	}
	if err := s.breakerAllow(e); err != nil {
		return err
	}
	ri := info(r)
	ri.model = m.info.Name
	t0 := time.Now()
	if err := s.acquire(r); err != nil {
		// Shed in the queue, not a model failure: no breaker record.
		return err
	}
	ri.queue = time.Since(t0)
	var label, consumed int
	t1 := time.Now()
	cerr := s.runClassify(m.info.Name, func() error {
		label, consumed = m.classify(req.Values)
		return nil
	})
	ri.classify = time.Since(t1)
	ri.worked = true
	s.release()
	e.breaker.record(cerr == nil)
	if cerr != nil {
		return cerr
	}

	n := len(req.Values[0])
	ri.prefix, ri.label, ri.decided = n, label, true
	m.stats.recordDecision(consumed, m.info.Length, n)
	return m.writeClassify(w, label, consumed)
}

// breakerAllow turns an open circuit breaker into a fast 503 with the
// remaining cooldown as Retry-After, before any classify work is queued.
func (s *Server) breakerAllow(e *modelEntry) error {
	ok, wait := e.breaker.allow()
	if ok {
		return nil
	}
	ae := errk(http.StatusServiceUnavailable, "breaker_open",
		"model %q circuit breaker is open", e.name)
	ae.retryAfter = wait
	return ae
}

// runClassify executes one classify/advance with the chaos hook applied
// and panics contained: a classifier that panics fails its own request
// with a 500 (and counts against its breaker) instead of killing the
// process.
func (s *Server) runClassify(model string, fn func() error) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = errk(http.StatusInternalServerError, "classify_panic",
				"model %q: classifier panicked: %v", model, rec)
		}
	}()
	if hook := s.cfg.ClassifyHook; hook != nil {
		if herr := hook(model); herr != nil {
			return errk(http.StatusInternalServerError, "classify_fault",
				"model %q: %v", model, herr)
		}
	}
	return fn()
}

// WriteJSON writes v as a JSON response with status. The fleet router
// writes its own documents with it.
func WriteJSON(w http.ResponseWriter, status int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	return json.NewEncoder(w).Encode(v)
}

// decodeStrict parses one JSON body strictly: unknown fields, trailing
// garbage and oversized bodies are errors.
func decodeStrict(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return err
		}
		return errf(http.StatusBadRequest, "malformed request body: %v", err)
	}
	if dec.More() {
		return errf(http.StatusBadRequest, "malformed request body: trailing data")
	}
	return nil
}

// validateValues rejects ragged or empty instances, and a variable count
// that contradicts the model's training shape.
func validateValues(values [][]float64, wantVars int) error {
	if len(values) == 0 {
		return errf(http.StatusBadRequest, "values must hold at least one variable")
	}
	n := len(values[0])
	if n == 0 {
		return errf(http.StatusBadRequest, "values must hold at least one time point")
	}
	for i, v := range values {
		if len(v) != n {
			return errf(http.StatusBadRequest, "variable %d has %d time points, variable 0 has %d", i, len(v), n)
		}
	}
	if wantVars > 0 && len(values) != wantVars {
		return errf(http.StatusBadRequest, "model expects %d variables, got %d", wantVars, len(values))
	}
	return nil
}
