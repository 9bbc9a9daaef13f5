package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/goetsc/goetsc/internal/evict"
	"github.com/goetsc/goetsc/internal/obs"
	"github.com/goetsc/goetsc/internal/serve"
	"github.com/goetsc/goetsc/internal/wire"
)

// Config controls one router. The zero value routes with sensible
// limits and no instrumentation.
type Config struct {
	// SessionTTL evicts idle session pins (and their replay logs); it
	// should match the replicas' session TTL so a pin never outlives or
	// predeceases its session by much. Default 10m.
	SessionTTL time.Duration
	// MaxBodyBytes caps request bodies at the router, mirroring the
	// replicas' own cap. Default 1 MiB.
	MaxBodyBytes int64
	// SLOTarget/SLOObjective parameterize the router's own rolling
	// latency windows, same knobs as serve.Config. Defaults 25ms / 0.99.
	SLOTarget    time.Duration
	SLOObjective float64
	// ReloadAPI exposes the fan-out control plane (POST
	// /v1/models/{name}/reload and /rollback). The replicas must have
	// their own ReloadAPI enabled for the fan-out to land.
	ReloadAPI bool
	// ReplicaHook, when set, runs before every routed work request with
	// the chosen replica's ID — the chaos suite's entry point for
	// replica death and latency injection. A returned error marks the
	// replica down; the router reroutes (and heals sessions) exactly as
	// it would for a real transport failure.
	ReplicaHook func(replicaID string) error
	// Clock overrides the router's time source for pin activity stamps
	// and TTL eviction; nil means time.Now. Tests drive it together with
	// the replicas' clock so pins and sessions age in lockstep.
	Clock evict.Clock
	// Obs receives router metrics and journal events; nil is a no-op.
	// Sharing one collector between router and local replicas merges
	// their Prometheus registries, which is exactly the fleet rollup
	// GET /metrics should serve.
	Obs *obs.Collector
}

func (c Config) withDefaults() Config {
	if c.SessionTTL <= 0 {
		c.SessionTTL = 10 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.SLOTarget <= 0 {
		c.SLOTarget = 25 * time.Millisecond
	}
	if c.SLOObjective <= 0 || c.SLOObjective >= 1 {
		c.SLOObjective = 0.99
	}
	return c
}

// pin is the router's record of one live session: who owns it and the
// raw point batches needed to rebuild it elsewhere. Chunk bodies are
// stored verbatim (including the "last" flag), so a replay drives the
// new owner through the exact request sequence the original saw —
// streamed decisions depend only on the point prefix, so the rebuilt
// session answers byte-identically.
//
// The log stops growing once the session decides: a decided session's
// remaining traffic is frozen-answer reads, and replaying the decided
// prefix reproduces the frozen answer. Log size is naturally bounded by
// the model's training length over the chunk size.
type pin struct {
	id    string
	model string

	mu        sync.Mutex
	replicaID string
	chunks    [][]byte
	decided   bool
	lastSeen  time.Time
}

// Router is the fleet front-end. Create with New, attach replicas with
// Add, then mount Handler.
type Router struct {
	cfg Config
	reg *obs.Registry

	mu       sync.RWMutex
	replicas []*Replica        // live set, insertion order (round-robin order)
	down     map[string]string // id → reason, for /readyz and /v1/stats
	pins     map[string]*pin

	ctl sync.Mutex // serializes control-plane fan-outs

	rr       atomic.Uint64 // round-robin cursor for one-shot traffic
	remaps   atomic.Uint64 // sessions moved because ownership changed
	heals    atomic.Uint64 // replay rebuilds performed (remaps + lost-session rebuilds)
	deaths   atomic.Uint64 // replicas marked down
	draining atomic.Bool

	// start and routes back /v1/stats: the router's own windows measure
	// routed (client-visible) latency per route.
	start  time.Time
	routes *serve.RouteWindows

	healsProm  *obs.Counter
	deathsProm *obs.Counter
	pinGauge   *obs.Gauge
	repGauge   *obs.Gauge
}

// New returns an empty router; Add at least one replica before serving.
func New(cfg Config) *Router {
	cfg = cfg.withDefaults()
	reg := cfg.Obs.Registry()
	rt := &Router{
		cfg:    cfg,
		reg:    reg,
		down:   map[string]string{},
		pins:   map[string]*pin{},
		start:  time.Now(),
		routes: serve.NewRouteWindows(cfg.SLOTarget, cfg.SLOObjective),
	}
	rt.healsProm = reg.Counter("etsc_fleet_heals_total",
		"Session rebuilds: the replay log re-created a session on a new owner.")
	rt.deathsProm = reg.Counter("etsc_fleet_replica_down_total",
		"Replicas removed from the live set after a failure.")
	rt.pinGauge = reg.Gauge("etsc_fleet_pinned_sessions",
		"Live session pins held by the router.")
	rt.repGauge = reg.Gauge("etsc_fleet_replicas",
		"Replicas in the live routing set.")
	return rt
}

func (rt *Router) now() time.Time { return rt.cfg.Clock.Now() }

// Add puts a replica into the live routing set. Local replicas are also
// wired to report TTL evictions back, so an evicted session frees its
// pin (and replay log) instead of leaking it.
func (rt *Router) Add(rp *Replica) {
	rp.routed = rt.reg.Counter("etsc_fleet_routed_total",
		"Requests forwarded to each replica.",
		obs.Label{Key: "replica", Value: rp.id})
	if rp.local != nil {
		rp.local.SetOnSessionEvict(rt.Unpin)
	}
	rt.mu.Lock()
	rt.replicas = append(rt.replicas, rp)
	delete(rt.down, rp.id)
	n := len(rt.replicas)
	rt.mu.Unlock()
	rt.repGauge.Set(float64(n))
	rt.cfg.Obs.Emit("fleet_replica_added", map[string]any{"replica": rp.id, "live": n})
}

// Remove takes a replica out of the live set (a graceful leave). Its
// pinned sessions remap lazily: the next request for each one heals it
// onto the new rendezvous owner from the replay log.
func (rt *Router) Remove(id string) bool {
	rt.mu.Lock()
	removed := rt.removeLocked(id)
	n := len(rt.replicas)
	rt.mu.Unlock()
	if removed {
		rt.repGauge.Set(float64(n))
		rt.cfg.Obs.Emit("fleet_replica_removed", map[string]any{"replica": id, "live": n})
	}
	return removed
}

func (rt *Router) removeLocked(id string) bool {
	for i, rp := range rt.replicas {
		if rp.id == id {
			rt.replicas = append(rt.replicas[:i], rt.replicas[i+1:]...)
			return true
		}
	}
	return false
}

// markDown removes a failed replica and records why. Unlike Remove, the
// id stays on the down list so /readyz and /v1/stats show the loss.
func (rt *Router) markDown(id string, cause error) {
	rt.mu.Lock()
	removed := rt.removeLocked(id)
	if removed {
		rt.down[id] = cause.Error()
	}
	n := len(rt.replicas)
	rt.mu.Unlock()
	if !removed {
		return // lost a race with another request's markDown
	}
	rt.deaths.Add(1)
	rt.deathsProm.Inc()
	rt.repGauge.Set(float64(n))
	rt.cfg.Obs.Emit("fleet_replica_down", map[string]any{
		"replica": id, "cause": cause.Error(), "live": n,
	})
}

// Replicas returns the live replica IDs in routing order.
func (rt *Router) Replicas() []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	ids := make([]string, len(rt.replicas))
	for i, rp := range rt.replicas {
		ids[i] = rp.id
	}
	return ids
}

// live snapshots the live replica slice.
func (rt *Router) live() []*Replica {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]*Replica, len(rt.replicas))
	copy(out, rt.replicas)
	return out
}

// owner resolves the rendezvous winner for a session ID against the
// current live set.
func (rt *Router) owner(sessionID string) *Replica {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	var best *Replica
	var bestScore uint64
	for _, rp := range rt.replicas {
		s := rendezvousScore(rp.id, sessionID)
		if best == nil || s > bestScore || (s == bestScore && rp.id > best.id) {
			best, bestScore = rp, s
		}
	}
	return best
}

// nextRR returns the next replica in round-robin order.
func (rt *Router) nextRR() *Replica {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if len(rt.replicas) == 0 {
		return nil
	}
	return rt.replicas[int(rt.rr.Add(1)-1)%len(rt.replicas)]
}

func (rt *Router) pin(id string) *pin {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.pins[id]
}

// Unpin drops one session's pin and replay log. Wired into local
// replicas' TTL eviction, and called on client DELETE.
func (rt *Router) Unpin(sessionID string) {
	rt.mu.Lock()
	_, ok := rt.pins[sessionID]
	delete(rt.pins, sessionID)
	n := len(rt.pins)
	rt.mu.Unlock()
	if ok {
		rt.pinGauge.Set(float64(n))
	}
}

// EvictIdlePins drops pins idle past the TTL, mirroring the replicas'
// own session sweeps, and returns how many were removed. Local replicas
// additionally push their evictions through Unpin, so this sweep mainly
// covers remote replicas and sessions orphaned by a death.
func (rt *Router) EvictIdlePins() int {
	cutoff := evict.Policy{TTL: rt.cfg.SessionTTL, Clock: rt.cfg.Clock}.Cutoff()
	// Pin locks are never taken under rt.mu (handlers hold p.mu and then
	// read rt.mu, so the reverse order would deadlock): snapshot first,
	// test idleness per pin, then delete the idle ones.
	rt.mu.RLock()
	snapshot := make([]*pin, 0, len(rt.pins))
	for _, p := range rt.pins {
		snapshot = append(snapshot, p)
	}
	rt.mu.RUnlock()
	var evicted []string
	for _, p := range snapshot {
		p.mu.Lock()
		idle := p.lastSeen.Before(cutoff)
		p.mu.Unlock()
		if idle {
			evicted = append(evicted, p.id)
		}
	}
	if len(evicted) == 0 {
		return 0
	}
	rt.mu.Lock()
	removed := 0
	for _, id := range evicted {
		if _, ok := rt.pins[id]; ok {
			delete(rt.pins, id)
			removed++
		}
	}
	n := len(rt.pins)
	rt.mu.Unlock()
	if removed > 0 {
		rt.pinGauge.Set(float64(n))
		rt.cfg.Obs.Emit("fleet_pins_evicted", map[string]any{"evicted": removed, "live": n})
	}
	return removed
}

// Drain flips the router into drain mode (new work-plane requests get
// 503) and drains every local replica. Remote replicas drain themselves
// on their own signal.
func (rt *Router) Drain(ctx context.Context) error {
	rt.draining.Store(true)
	var firstErr error
	for _, rp := range rt.live() {
		if rp.local == nil {
			continue
		}
		if err := rp.local.Drain(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ---- forwarding ----

var errNoReplicas = serve.Errorf(http.StatusServiceUnavailable, "no_replicas", "fleet: no live replicas")

// forward sends one request leg to a replica, carrying the router's own
// span in the trace header — the replica adopts it and mints its child,
// so client → router → replica parentage survives the hop — plus
// content type and tenant attribution.
func (rt *Router) forward(r *http.Request, rp *Replica, method, path string, body []byte) (*response, error) {
	hdr := http.Header{}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		hdr.Set("Content-Type", ct)
	} else if body != nil {
		hdr.Set("Content-Type", "application/json")
	}
	if tenant := r.Header.Get("X-Etsc-Tenant"); tenant != "" {
		hdr.Set("X-Etsc-Tenant", tenant)
	}
	if tc := obs.TraceFrom(r.Context()); tc.Valid() {
		hdr.Set(obs.TraceHeader, tc.Header())
	}
	rp.routed.Inc()
	return rp.do(r.Context(), method, path, hdr, body)
}

// checkHook runs the chaos hook for a replica; a returned error has the
// same effect as the replica failing the request.
func (rt *Router) checkHook(rp *Replica) error {
	if hook := rt.cfg.ReplicaHook; hook != nil {
		return hook(rp.id)
	}
	return nil
}

// heal rebuilds a session on rep from the replay log: delete any stale
// copy (ownership can flap back to a replica still holding an old
// prefix — serving from it would diverge), re-create under the same ID
// on the same model, then replay every logged chunk in order. Callers
// hold p.mu. On success the pin points at rep.
func (rt *Router) heal(r *http.Request, p *pin, rp *Replica) error {
	if _, err := rt.forward(r, rp, http.MethodDelete, "/v1/sessions/"+p.id, nil); err != nil {
		return err
	}
	createBody, err := json.Marshal(map[string]string{"model": p.model, "session_id": p.id})
	if err != nil {
		return err
	}
	f, err := rt.forward(r, rp, http.MethodPost, "/v1/sessions", createBody)
	if err != nil {
		return err
	}
	if f.status != http.StatusCreated {
		return fmt.Errorf("fleet: heal %s on %s: create answered %d", p.id, rp.id, f.status)
	}
	for i, chunk := range p.chunks {
		f, err := rt.forward(r, rp, http.MethodPost, "/v1/sessions/"+p.id+"/points", chunk)
		if err != nil {
			return err
		}
		if f.status != http.StatusOK {
			return fmt.Errorf("fleet: heal %s on %s: replay chunk %d answered %d", p.id, rp.id, i, f.status)
		}
	}
	p.replicaID = rp.id
	rt.heals.Add(1)
	rt.healsProm.Inc()
	rt.cfg.Obs.Emit("fleet_session_healed", map[string]any{
		"session": p.id, "replica": rp.id, "chunks": len(p.chunks),
	})
	return nil
}

// sessionDo routes one request of a pinned session: resolve the current
// rendezvous owner, heal the session over if ownership moved, forward,
// and on replica failure mark it down and start over against the
// shrunken set. Callers hold p.mu, so one session's heal+forward is
// atomic with respect to its other requests.
func (rt *Router) sessionDo(r *http.Request, p *pin, fi *fleetInfo, method, path string, body []byte) (*response, error) {
	for {
		rp := rt.owner(p.id)
		if rp == nil {
			return nil, errNoReplicas
		}
		fi.replica = rp.id
		if err := rt.checkHook(rp); err != nil {
			rt.markDown(rp.id, err)
			continue
		}
		if p.replicaID != rp.id {
			rt.remaps.Add(1)
			fi.healed = true
			if err := rt.heal(r, p, rp); err != nil {
				rt.markDown(rp.id, err)
				continue
			}
		}
		f, err := rt.forward(r, rp, method, path, body)
		if err != nil {
			rt.markDown(rp.id, err)
			continue
		}
		if f.status == http.StatusNotFound {
			// The owner lost the session (TTL eviction or a restart):
			// rebuild once from the log and retry on the same replica.
			fi.healed = true
			if err := rt.heal(r, p, rp); err != nil {
				rt.markDown(rp.id, err)
				continue
			}
			f, err = rt.forward(r, rp, method, path, body)
			if err != nil {
				rt.markDown(rp.id, err)
				continue
			}
		}
		return f, nil
	}
}

// ---- handlers ----

// fleetInfo accumulates what one routed request's journal record needs.
type fleetInfo struct {
	replica string
	session string
	healed  bool
}

// wrap instruments one route: trace adoption/echo, body cap, error
// rendering, rolling windows and the journal record. Work routes are
// additionally gated on drain mode. Tracing, status capture, drain
// answers and error rendering are the replica's own front end, so the
// router rejects a request exactly as a replica would.
func (rt *Router) wrap(route string, work bool, h func(http.ResponseWriter, *http.Request, *fleetInfo) error) http.HandlerFunc {
	reqs := rt.reg.Counter("etsc_fleet_requests_total",
		"Requests entering the fleet router, by route.",
		obs.Label{Key: "route", Value: route})
	var rs *serve.RouteStats
	if work {
		rs = rt.routes.Route(route)
	}
	journal := rt.cfg.Obs.Journal() != nil
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqs.Inc()
		tc, parent, ctx := serve.TraceRequest(w, r)
		r = r.WithContext(ctx)
		sw := &serve.StatusWriter{ResponseWriter: w}
		fi := &fleetInfo{}
		var err error
		if work && rt.draining.Load() {
			err = serve.DrainingError(sw)
		} else {
			r.Body = http.MaxBytesReader(sw, r.Body, rt.cfg.MaxBodyBytes)
			err = h(sw, r, fi)
		}
		if err != nil {
			serve.WriteError(sw, err)
		}
		wall := time.Since(start)
		if rs != nil {
			rs.Observe(wall, sw.Status())
		}
		if journal {
			fields := map[string]any{
				"trace":   tc.Trace.String(),
				"span":    tc.Span.String(),
				"route":   route,
				"status":  sw.Status(),
				"wall_ms": float64(wall) / float64(time.Millisecond),
			}
			if !parent.IsZero() {
				fields["parent_span"] = parent.String()
			}
			if fi.replica != "" {
				fields["replica"] = fi.replica
			}
			if fi.session != "" {
				fields["session"] = fi.session
			}
			if fi.healed {
				fields["healed"] = true
			}
			rt.cfg.Obs.Emit("fleet_access", fields)
		}
	}
}

// writeResponse relays a buffered backend answer to the client. The
// router's own trace header (already set) is kept: the client sees the
// router's span, the journal links it to the replica's.
func writeResponse(w http.ResponseWriter, f *response) error {
	for _, k := range []string{"Content-Type", "Retry-After"} {
		if v := f.header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.WriteHeader(f.status)
	_, err := w.Write(f.body)
	return err
}

// Handler builds the router's HTTP front end — the same route surface
// the replicas expose, so clients cannot tell a fleet from one server.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.wrap("healthz", false, rt.handleHealthz))
	mux.HandleFunc("GET /readyz", rt.wrap("readyz", false, rt.handleReadyz))
	mux.HandleFunc("GET /metrics", rt.wrap("metrics", false, rt.handleMetrics))
	mux.HandleFunc("GET /v1/stats", rt.wrap("stats", false, rt.handleStats))
	mux.HandleFunc("GET /v1/models", rt.wrap("models", false, rt.handleModels))
	mux.HandleFunc("POST /v1/classify", rt.wrap("classify", true, rt.handleClassify))
	mux.HandleFunc("POST /v1/sessions", rt.wrap("session_create", true, rt.handleSessionCreate))
	mux.HandleFunc("POST /v1/sessions/{id}/points", rt.wrap("session_points", true, rt.handleSessionPoints))
	mux.HandleFunc("GET /v1/sessions/{id}", rt.wrap("session_get", true, rt.handleSessionGet))
	mux.HandleFunc("DELETE /v1/sessions/{id}", rt.wrap("session_close", true, rt.handleSessionClose))
	if rt.cfg.ReloadAPI {
		mux.HandleFunc("POST /v1/models/{name}/reload", rt.wrap("model_reload", false, rt.handleReload))
		mux.HandleFunc("POST /v1/models/{name}/rollback", rt.wrap("model_rollback", false, rt.handleRollback))
	}
	return mux
}

// route forwards one request to the replica pick chooses. A replica
// that fails (or whose chaos hook fails it, when hook is set) is marked
// down and the request goes to the next pick from the shrunken set.
func (rt *Router) route(r *http.Request, fi *fleetInfo, pick func() *Replica, hook bool, method, path string, body []byte) (*response, error) {
	for {
		rp := pick()
		if rp == nil {
			return nil, errNoReplicas
		}
		fi.replica = rp.id
		if hook {
			if err := rt.checkHook(rp); err != nil {
				rt.markDown(rp.id, err)
				continue
			}
		}
		f, err := rt.forward(r, rp, method, path, body)
		if err != nil {
			rt.markDown(rp.id, err)
			continue
		}
		return f, nil
	}
}

// handleClassify load-balances one-shot requests round-robin: they
// carry no cursor state, so any replica answers correctly.
func (rt *Router) handleClassify(w http.ResponseWriter, r *http.Request, fi *fleetInfo) error {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return err
	}
	f, err := rt.route(r, fi, rt.nextRR, true, http.MethodPost, "/v1/classify", body)
	if err != nil {
		return err
	}
	return writeResponse(w, f)
}

// handleSessionCreate places a new session: the router mints the ID
// first (unless the client named one), so the rendezvous hash of the ID
// decides the owner before any replica is touched. The body is decoded
// by the replica's own decoder, so the router accepts exactly the
// bodies a replica does.
func (rt *Router) handleSessionCreate(w http.ResponseWriter, r *http.Request, fi *fleetInfo) error {
	model, id, err := serve.DecodeSessionCreate(r)
	if err != nil {
		return err
	}
	if id == "" {
		if id, err = serve.NewSessionID(); err != nil {
			return err
		}
	}
	fi.session = id
	createBody, err := json.Marshal(map[string]string{"model": model, "session_id": id})
	if err != nil {
		return err
	}
	if p := rt.pin(id); p != nil {
		return rt.createPinned(w, r, fi, p, createBody)
	}
	f, err := rt.route(r, fi, func() *Replica { return rt.owner(id) }, true, http.MethodPost, "/v1/sessions", createBody)
	if err != nil {
		return err
	}
	if f.status == http.StatusCreated {
		p := &pin{id: id, model: model, replicaID: fi.replica, lastSeen: rt.now()}
		rt.mu.Lock()
		rt.pins[id] = p
		n := len(rt.pins)
		rt.mu.Unlock()
		rt.pinGauge.Set(float64(n))
	}
	return writeResponse(w, f)
}

// createPinned answers a create that names a pinned session as the
// replica holding it would. A replica checks the model before its
// session table, so the body goes to the session's owner: an unknown
// model comes back as that replica's 404, anything else as 409. An owner
// that no longer held the session (evicted, or ownership moved) has just
// created an empty one under the ID; heal rebuilds it from the log.
func (rt *Router) createPinned(w http.ResponseWriter, r *http.Request, fi *fleetInfo, p *pin, body []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if rp := rt.owner(p.id); rp != nil {
		fi.replica = rp.id
		f, err := rt.forward(r, rp, http.MethodPost, "/v1/sessions", body)
		switch {
		case err != nil:
			rt.markDown(rp.id, err)
		case f.status == http.StatusNotFound:
			return writeResponse(w, f)
		case f.status == http.StatusCreated:
			fi.healed = true
			if err := rt.heal(r, p, rp); err != nil {
				rt.markDown(rp.id, err)
			}
		}
	}
	return serve.Errorf(http.StatusConflict, "session_exists", "session %q already exists", p.id)
}

func (rt *Router) handleSessionPoints(w http.ResponseWriter, r *http.Request, fi *fleetInfo) error {
	id := r.PathValue("id")
	fi.session = id
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return err
	}
	p := rt.pin(id)
	if p == nil {
		// Not a fleet-created session (or the pin aged out): pass the
		// request through to the rendezvous owner unhealed.
		return rt.passthrough(w, r, fi, http.MethodPost, "/v1/sessions/"+id+"/points", body)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lastSeen = rt.now()
	f, err := rt.sessionDo(r, p, fi, http.MethodPost, "/v1/sessions/"+id+"/points", body)
	if err != nil {
		return err
	}
	if f.status == http.StatusOK && !p.decided {
		p.chunks = append(p.chunks, body)
		if decidedResponse(f.body) {
			p.decided = true
		}
	}
	return writeResponse(w, f)
}

func (rt *Router) handleSessionGet(w http.ResponseWriter, r *http.Request, fi *fleetInfo) error {
	id := r.PathValue("id")
	fi.session = id
	p := rt.pin(id)
	if p == nil {
		return rt.passthrough(w, r, fi, http.MethodGet, "/v1/sessions/"+id, nil)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lastSeen = rt.now()
	f, err := rt.sessionDo(r, p, fi, http.MethodGet, "/v1/sessions/"+id, nil)
	if err != nil {
		return err
	}
	return writeResponse(w, f)
}

func (rt *Router) handleSessionClose(w http.ResponseWriter, r *http.Request, fi *fleetInfo) error {
	id := r.PathValue("id")
	fi.session = id
	p := rt.pin(id)
	if p == nil {
		return rt.passthrough(w, r, fi, http.MethodDelete, "/v1/sessions/"+id, nil)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	f, err := rt.sessionDo(r, p, fi, http.MethodDelete, "/v1/sessions/"+id, nil)
	rt.Unpin(id)
	if err != nil {
		return err
	}
	return writeResponse(w, f)
}

// passthrough forwards an unpinned session request to its rendezvous
// owner with no heal/retry — the router holds no log to rebuild from.
func (rt *Router) passthrough(w http.ResponseWriter, r *http.Request, fi *fleetInfo, method, path string, body []byte) error {
	rp := rt.owner(r.PathValue("id"))
	if rp == nil {
		return errNoReplicas
	}
	fi.replica = rp.id
	if err := rt.checkHook(rp); err != nil {
		rt.markDown(rp.id, err)
		return serve.Errorf(http.StatusBadGateway, "replica_failed", "replica %s failed: %v", rp.id, err)
	}
	f, err := rt.forward(r, rp, method, path, body)
	if err != nil {
		rt.markDown(rp.id, err)
		return serve.Errorf(http.StatusBadGateway, "replica_failed", "replica %s failed: %v", rp.id, err)
	}
	return writeResponse(w, f)
}

// handleModels asks one replica — the registries are replicas of each
// other, so any live answer is the fleet's answer. The router does not
// count it as a work route, so ReplicaHook does not run for it.
func (rt *Router) handleModels(w http.ResponseWriter, r *http.Request, fi *fleetInfo) error {
	f, err := rt.route(r, fi, rt.nextRR, false, http.MethodGet, "/v1/models", nil)
	if err != nil {
		return err
	}
	return writeResponse(w, f)
}

// decidedResponse reports whether a session-state body says "decided".
// A replica's rendered state body is scanned by hand; anything outside
// package wire's subset takes json.Unmarshal.
func decidedResponse(body []byte) bool {
	if decided, ok := scanDecided(body); ok {
		return decided
	}
	var st struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return false
	}
	return st.Status == "decided"
}

// scanDecided is decidedResponse's fast path. Like json.Unmarshal into a
// one-field struct it ignores every other key, so it declines only keys
// that would case-fold onto "status" and values outside the subset.
func scanDecided(body []byte) (decided, ok bool) {
	var s wire.Scanner
	s.Reset(body)
	var status []byte
	for s.Next() {
		switch k := s.Key(); {
		case string(k) == "status":
			status = s.String()
		case bytes.EqualFold(k, []byte("status")):
			return false, false
		default:
			s.Skip()
		}
	}
	if !s.Done() {
		return false, false
	}
	return string(status) == "decided", true
}
