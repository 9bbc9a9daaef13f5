package serve

import (
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/goetsc/goetsc/internal/obs"
)

// The stats plane gives the paper's offline metrics live counterparts.
// Offline, the framework scores an algorithm by the joint
// earliness/accuracy trade-off; online, ground-truth labels never
// arrive, so the serving layer tracks what it can observe: how early
// each model commits (earliness-at-commit), how often streamed answers
// are still pending (pending rate), where in the series decisions land
// (decision-prefix histogram), and whether the endpoints hold their
// latency SLOs. All of it is derivable from rolling windows with fixed
// memory, snapshotted by GET /v1/stats, rendered by GET /debug/etsc,
// and exported in Prometheus form by GET /metrics.

// prefixBuckets is the decision-prefix histogram resolution: decile
// buckets of consumed/length at commit.
const prefixBuckets = 10

// serverStats aggregates per-route latency windows + SLOs and per-model
// online quality. Route stats are created once at Handler build; model
// stats are created under AddModel.
type serverStats struct {
	start     time.Time
	sloTarget time.Duration
	reg       *obs.Registry
	routes    *RouteWindows

	mu     sync.Mutex
	models map[string]*modelStats
	global lifecycleCounts
}

// RouteWindows holds per-route rolling latency windows and SLOs over
// obs.StatsSpans. A server keeps one for its own routes; the fleet
// router keeps another for the routed, client-visible latency.
type RouteWindows struct {
	sloTarget    time.Duration
	sloObjective float64

	mu     sync.Mutex
	routes map[string]*RouteStats
}

// RouteStats is one route's window + SLO pair.
type RouteStats struct {
	win *obs.Window
	slo *obs.SLO
}

// NewRouteWindows returns an empty set whose SLOs hold sloObjective of
// requests under sloTarget.
func NewRouteWindows(sloTarget time.Duration, sloObjective float64) *RouteWindows {
	return &RouteWindows{
		sloTarget:    sloTarget,
		sloObjective: sloObjective,
		routes:       map[string]*RouteStats{},
	}
}

type lifecycleCounts struct {
	Created  uint64 `json:"created"`
	Advanced uint64 `json:"advanced"` // /points batches applied
	Decided  uint64 `json:"decided"`
	Closed   uint64 `json:"closed"`
	Evicted  uint64 `json:"evicted"`
}

// Session lifecycle events, indexing lifecycleNames and the pre-resolved
// per-model Prometheus counters.
const (
	evCreated = iota
	evAdvanced
	evDecided
	evClosed
	evEvicted
	numLifecycleEvents
)

var lifecycleNames = [numLifecycleEvents]string{"created", "advanced", "decided", "closed", "evicted"}

func (l *lifecycleCounts) bump(ev int) {
	switch ev {
	case evCreated:
		l.Created++
	case evAdvanced:
		l.Advanced++
	case evDecided:
		l.Decided++
	case evClosed:
		l.Closed++
	case evEvicted:
		l.Evicted++
	}
}

// modelStats is one model's online quality telemetry. The registry
// instruments mirror the struct so Prometheus scrapers and /v1/stats
// read the same numbers.
type modelStats struct {
	mu             sync.Mutex
	decisions      uint64
	earlyCommits   uint64 // committed strictly before the full length
	earlinessSum   float64
	pendingAnswers uint64
	pointBatches   uint64
	prefixHist     [prefixBuckets]uint64
	sessions       lifecycleCounts

	earlinessGauge *obs.Gauge
	pendingGauge   *obs.Gauge
	hmGauge        *obs.Gauge
	prefixProm     *obs.Histogram
	lifecycleProm  [numLifecycleEvents]*obs.Counter
}

func newServerStats(reg *obs.Registry, sloTarget time.Duration, sloObjective float64) *serverStats {
	return &serverStats{
		start:     time.Now(),
		sloTarget: sloTarget,
		reg:       reg,
		routes:    NewRouteWindows(sloTarget, sloObjective),
		models:    map[string]*modelStats{},
	}
}

// maxSpan is the longest reported window; the ring is sized for it.
func maxSpan() time.Duration { return obs.StatsSpans[len(obs.StatsSpans)-1] }

// Route returns (creating on first use) one route's window + SLO pair.
func (rw *RouteWindows) Route(name string) *RouteStats {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	rs, ok := rw.routes[name]
	if !ok {
		rs = &RouteStats{
			win: obs.NewWindow(obs.ServeBuckets, time.Second, maxSpan()),
			slo: obs.NewSLO(rw.sloTarget, rw.sloObjective, time.Second, maxSpan()),
		}
		rw.routes[name] = rs
	}
	return rs
}

// Endpoints renders every route's windows and SLO verdicts, keyed by
// span, as GET /v1/stats reports them.
func (rw *RouteWindows) Endpoints() map[string]EndpointStats {
	rw.mu.Lock()
	routes := make(map[string]*RouteStats, len(rw.routes))
	for k, v := range rw.routes {
		routes[k] = v
	}
	rw.mu.Unlock()
	out := make(map[string]EndpointStats, len(routes))
	for name, rs := range routes {
		es := EndpointStats{Windows: map[string]WindowJSON{}, SLO: map[string]obs.SLOReport{}}
		for _, span := range obs.StatsSpans {
			es.Windows[spanKey(span)] = windowJSON(rs.win.Snapshot(span))
			es.SLO[spanKey(span)] = rs.slo.Report(span)
		}
		out[name] = es
	}
	return out
}

// model returns (creating on first use) one model's quality telemetry,
// wiring its Prometheus mirrors.
func (st *serverStats) model(name string) *modelStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	ms, ok := st.models[name]
	if !ok {
		lbl := obs.Label{Key: "model", Value: name}
		ms = &modelStats{
			earlinessGauge: st.reg.Gauge("etsc_serve_earliness_at_commit",
				"Mean consumed/length at decision commit, per model (lower = earlier).", lbl),
			pendingGauge: st.reg.Gauge("etsc_serve_pending_rate",
				"Fraction of session point batches answered pending, per model.", lbl),
			hmGauge: st.reg.Gauge("etsc_serve_quality_hm",
				"Harmonic mean of (1-earliness) and the early-commit rate, per model — the live stand-in for the paper's accuracy/earliness HM (accuracy is unobservable online).", lbl),
			prefixProm: st.reg.Histogram("etsc_serve_decision_prefix_ratio",
				"Decision commit points as a fraction of the full series length.", prefixBounds(), lbl),
		}
		for ev, evName := range lifecycleNames {
			ms.lifecycleProm[ev] = st.reg.Counter("etsc_serve_sessions_total",
				"Session lifecycle events by model.",
				obs.Label{Key: "event", Value: evName}, lbl)
		}
		st.models[name] = ms
	}
	return ms
}

func prefixBounds() []float64 {
	b := make([]float64, prefixBuckets)
	for i := range b {
		b[i] = float64(i+1) / prefixBuckets
	}
	return b
}

// Observe feeds one finished request into its route's window and SLO.
func (rs *RouteStats) Observe(d time.Duration, status int) {
	rs.win.Observe(d.Seconds())
	rs.slo.Observe(d, status >= 500)
}

// earlinessRatio is consumed/L clamped to [0,1]; L falls back to the
// observed length when the model's training length is unknown.
func earlinessRatio(consumed, fullLen, observedLen int) float64 {
	l := fullLen
	if l <= 0 {
		l = observedLen
	}
	if l <= 0 || consumed <= 0 {
		return 0
	}
	e := float64(consumed) / float64(l)
	if e > 1 {
		e = 1
	}
	return e
}

// recordDecision folds one committed decision (one-shot or streamed)
// into the model's earliness, prefix-histogram and HM telemetry.
func (ms *modelStats) recordDecision(consumed, fullLen, observedLen int) {
	e := earlinessRatio(consumed, fullLen, observedLen)
	ms.mu.Lock()
	ms.decisions++
	ms.earlinessSum += e
	if e < 1 {
		ms.earlyCommits++
	}
	idx := int(e * prefixBuckets)
	if idx >= prefixBuckets {
		idx = prefixBuckets - 1
	}
	ms.prefixHist[idx]++
	mean := ms.earlinessSum / float64(ms.decisions)
	rate := float64(ms.earlyCommits) / float64(ms.decisions)
	ms.mu.Unlock()

	ms.prefixProm.Observe(e)
	ms.earlinessGauge.Set(mean)
	ms.hmGauge.Set(harmonicQuality(mean, rate))
}

// recordBatch counts one /points batch and whether it answered pending.
func (ms *modelStats) recordBatch(pending bool) {
	ms.mu.Lock()
	ms.pointBatches++
	if pending {
		ms.pendingAnswers++
	}
	rate := float64(ms.pendingAnswers) / float64(ms.pointBatches)
	ms.mu.Unlock()
	ms.pendingGauge.Set(rate)
}

// harmonicQuality is the live stand-in for the paper's harmonic mean of
// accuracy and earliness: with labels unobservable online, the accuracy
// term is replaced by the early-commit rate (the fraction of decisions
// the model committed before exhausting the series), and the earliness
// term is 1-mean(consumed/length). Both land in [0,1]; the harmonic
// mean punishes a model that is early but never commits, or always
// commits but only at the very end.
func harmonicQuality(meanEarliness, earlyCommitRate float64) float64 {
	a, b := 1-meanEarliness, earlyCommitRate
	if a+b == 0 {
		return 0
	}
	return 2 * a * b / (a + b)
}

// lifecycle bumps one session-lifecycle counter for a model and the
// global aggregate. The Prometheus mirror was resolved when the model
// registered, so the request hot path never touches the registry.
func (st *serverStats) lifecycle(model string, ev int) {
	ms := st.model(model)
	ms.mu.Lock()
	ms.sessions.bump(ev)
	ms.mu.Unlock()
	st.mu.Lock()
	st.global.bump(ev)
	st.mu.Unlock()
	ms.lifecycleProm[ev].Inc()
}

// ---- snapshot (GET /v1/stats) ----

// WindowJSON is one rolling window rendered in milliseconds.
type WindowJSON struct {
	Count    uint64  `json:"count"`
	RatePerS float64 `json:"rate_per_s"`
	MeanMs   float64 `json:"mean_ms"`
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	P99Ms    float64 `json:"p99_ms"`
}

// EndpointStats is one route's windows and SLO verdicts, keyed by span
// ("10s", "1m", "5m").
type EndpointStats struct {
	Windows map[string]WindowJSON    `json:"windows"`
	SLO     map[string]obs.SLOReport `json:"slo"`
}

// PrefixBucket is one decile of the decision-prefix histogram.
type PrefixBucket struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// ModelQuality is one model's online quality snapshot — the live
// counterpart of the paper's offline earliness/accuracy table.
type ModelQuality struct {
	Decisions         uint64          `json:"decisions"`
	EarlyCommits      uint64          `json:"early_commits"`
	EarlyCommitRate   float64         `json:"early_commit_rate"`
	EarlinessAtCommit float64         `json:"earliness_at_commit"`
	PointBatches      uint64          `json:"point_batches"`
	PendingAnswers    uint64          `json:"pending_answers"`
	PendingRate       float64         `json:"pending_rate"`
	QualityHM         float64         `json:"quality_hm"`
	PrefixHist        []PrefixBucket  `json:"prefix_hist"`
	Sessions          lifecycleCounts `json:"sessions"`
}

// StatsSnapshot is the GET /v1/stats document.
type StatsSnapshot struct {
	Now        time.Time                `json:"now"`
	UptimeS    float64                  `json:"uptime_s"`
	SLOTarget  string                   `json:"slo_target"`
	Endpoints  map[string]EndpointStats `json:"endpoints"`
	Models     map[string]ModelQuality  `json:"models"`
	Sessions   lifecycleCounts          `json:"sessions"`
	Resilience *ResilienceStats         `json:"resilience,omitempty"`
}

// ModelResilience is one model's control-plane view: version history,
// artifact provenance and circuit-breaker state.
type ModelResilience struct {
	Version         int            `json:"version"`
	PreviousVersion int            `json:"previous_version,omitempty"`
	Checksum        string         `json:"checksum,omitempty"`
	Source          string         `json:"source,omitempty"`
	LoadedAt        time.Time      `json:"loaded_at"`
	Reloads         uint64         `json:"reloads"`
	Rollbacks       uint64         `json:"rollbacks"`
	LastReloadError *reloadFailure `json:"last_reload_error,omitempty"`
	Breaker         BreakerStatus  `json:"breaker"`
}

// ResilienceStats is the serving plane's admission/reload/breaker view.
type ResilienceStats struct {
	Draining     bool                       `json:"draining"`
	InflightWork int64                      `json:"inflight_work"`
	QueueDepth   int                        `json:"queue_depth"`
	Queued       int64                      `json:"queued"`
	Shed         map[string]uint64          `json:"shed"`
	Models       map[string]ModelResilience `json:"models"`
}

// resilienceSnapshot assembles the resilience section of /v1/stats.
func (s *Server) resilienceSnapshot() *ResilienceStats {
	rs := &ResilienceStats{
		Draining: s.draining.Load(), InflightWork: s.inflightWork.Load(),
		QueueDepth: s.cfg.QueueDepth, Queued: s.queued.Load(),
		Shed: map[string]uint64{}, Models: map[string]ModelResilience{},
	}
	for i, reason := range shedReasonNames {
		rs.Shed[reason] = s.shedCounts[i].Load()
	}
	s.mu.RLock()
	entries := make([]*modelEntry, 0, len(s.models))
	for _, e := range s.models {
		entries = append(entries, e)
	}
	s.mu.RUnlock()
	for _, e := range entries {
		m := e.cur.Load()
		mr := ModelResilience{
			Version:  m.info.Version,
			Checksum: m.info.Checksum,
			LoadedAt: m.loadedAt,
			Reloads:  e.reloads.Load(), Rollbacks: e.rollbacks.Load(),
			Breaker: e.breaker.status(),
		}
		e.ctl.Lock()
		mr.Source = e.source
		if e.prev != nil {
			mr.PreviousVersion = e.prev.info.Version
		}
		e.ctl.Unlock()
		if f := e.lastReloadErr.Load(); f != nil {
			mr.LastReloadError = f
		}
		rs.Models[e.name] = mr
	}
	return rs
}

// spanKey renders a window span compactly ("10s", "1m", "5m").
func spanKey(d time.Duration) string {
	if d%time.Minute == 0 {
		return strconv.Itoa(int(d/time.Minute)) + "m"
	}
	return strconv.Itoa(int(d/time.Second)) + "s"
}

func windowJSON(st obs.WindowStats) WindowJSON {
	ms := func(s float64) float64 { return s * 1e3 }
	return WindowJSON{
		Count: st.Count, RatePerS: st.Rate,
		MeanMs: ms(st.Mean), P50Ms: ms(st.P50), P95Ms: ms(st.P95), P99Ms: ms(st.P99),
	}
}

// Snapshot assembles the full stats-plane view.
func (st *serverStats) Snapshot() StatsSnapshot {
	snap := StatsSnapshot{
		Now:       time.Now(),
		UptimeS:   time.Since(st.start).Seconds(),
		SLOTarget: st.sloTarget.String(),
		Endpoints: st.routes.Endpoints(),
		Models:    map[string]ModelQuality{},
	}

	st.mu.Lock()
	models := make(map[string]*modelStats, len(st.models))
	for k, v := range st.models {
		models[k] = v
	}
	snap.Sessions = st.global
	st.mu.Unlock()

	for name, ms := range models {
		ms.mu.Lock()
		q := ModelQuality{
			Decisions:      ms.decisions,
			EarlyCommits:   ms.earlyCommits,
			PointBatches:   ms.pointBatches,
			PendingAnswers: ms.pendingAnswers,
			Sessions:       ms.sessions,
		}
		if ms.decisions > 0 {
			q.EarlinessAtCommit = ms.earlinessSum / float64(ms.decisions)
			q.EarlyCommitRate = float64(ms.earlyCommits) / float64(ms.decisions)
			q.QualityHM = harmonicQuality(q.EarlinessAtCommit, q.EarlyCommitRate)
		}
		if ms.pointBatches > 0 {
			q.PendingRate = float64(ms.pendingAnswers) / float64(ms.pointBatches)
		}
		for i, c := range ms.prefixHist {
			q.PrefixHist = append(q.PrefixHist, PrefixBucket{LE: float64(i+1) / prefixBuckets, Count: c})
		}
		ms.mu.Unlock()
		snap.Models[name] = q
	}
	return snap
}

// ---- handlers ----

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) error {
	return WriteJSON(w, http.StatusOK, s.Stats())
}

// handleMetrics serves the registry in Prometheus text exposition
// format; with no registry configured the body is empty but valid.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) error {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	return s.cfg.Obs.Registry().WritePrometheus(w)
}

// sortedKeys returns map keys in deterministic order for rendering.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
