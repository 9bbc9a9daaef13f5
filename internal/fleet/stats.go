package fleet

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"time"

	"github.com/goetsc/goetsc/internal/serve"
)

// The fleet's observability surface mirrors one replica's: /readyz,
// /metrics and /v1/stats exist at the router with the same shapes, but
// aggregated — the router's own rolling windows measure the routed
// (client-visible) latency per route, and each replica's full snapshot
// rides along verbatim so per-replica drill-down needs no extra scrape.

// ReplicaStatus is one replica's slice of an aggregated document.
type ReplicaStatus struct {
	Status int             `json:"status"`
	Error  string          `json:"error,omitempty"`
	Body   json.RawMessage `json:"body,omitempty"`
}

// FleetSnapshot is the GET /v1/stats document at the router.
type FleetSnapshot struct {
	Now            time.Time                      `json:"now"`
	UptimeS        float64                        `json:"uptime_s"`
	Replicas       []string                       `json:"replicas"`
	Down           map[string]string              `json:"down,omitempty"`
	PinnedSessions int                            `json:"pinned_sessions"`
	Remaps         uint64                         `json:"remaps"`
	Heals          uint64                         `json:"heals"`
	ReplicaDeaths  uint64                         `json:"replica_deaths"`
	Draining       bool                           `json:"draining"`
	SLOTarget      string                         `json:"slo_target"`
	Endpoints      map[string]serve.EndpointStats `json:"endpoints"`
	PerReplica     map[string]ReplicaStatus       `json:"per_replica"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request, _ *fleetInfo) error {
	rt.mu.RLock()
	n := len(rt.replicas)
	rt.mu.RUnlock()
	return serve.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "replicas": n})
}

// handleReadyz is ready only when every live replica is ready and at
// least one replica is live; the per-replica verdicts ride along so a
// degraded fleet shows exactly which backend is the problem.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request, _ *fleetInfo) error {
	reps := rt.live()
	perReplica := map[string]ReplicaStatus{}
	ready := len(reps) > 0
	for _, rp := range reps {
		f, err := rt.forward(r, rp, http.MethodGet, "/readyz", nil)
		if err != nil {
			perReplica[rp.id] = ReplicaStatus{Status: http.StatusBadGateway, Error: err.Error()}
			ready = false
			continue
		}
		perReplica[rp.id] = ReplicaStatus{Status: f.status, Body: rawJSON(f.body)}
		if f.status != http.StatusOK {
			ready = false
		}
	}
	status, verdict := http.StatusOK, "ready"
	if !ready {
		status, verdict = http.StatusServiceUnavailable, "degraded"
	}
	return serve.WriteJSON(w, status, map[string]any{
		"status":   verdict,
		"replicas": perReplica,
		"down":     rt.downList(),
	})
}

// handleMetrics serves the router's registry. In-process fleets share
// one collector between the router and every local replica, so this one
// exposition is already the fleet rollup: per-replica routing counters
// next to the summed serve-layer counters.
func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request, _ *fleetInfo) error {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	return rt.reg.WritePrometheus(w)
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request, _ *fleetInfo) error {
	reps := rt.live()
	snap := FleetSnapshot{
		Now:           time.Now(),
		UptimeS:       time.Since(rt.start).Seconds(),
		Down:          rt.downList(),
		Remaps:        rt.remaps.Load(),
		Heals:         rt.heals.Load(),
		ReplicaDeaths: rt.deaths.Load(),
		Draining:      rt.draining.Load(),
		SLOTarget:     rt.cfg.SLOTarget.String(),
		Endpoints:     rt.routes.Endpoints(),
		PerReplica:    map[string]ReplicaStatus{},
	}
	rt.mu.RLock()
	snap.PinnedSessions = len(rt.pins)
	rt.mu.RUnlock()
	for _, rp := range reps {
		snap.Replicas = append(snap.Replicas, rp.id)
		f, err := rt.forward(r, rp, http.MethodGet, "/v1/stats", nil)
		if err != nil {
			snap.PerReplica[rp.id] = ReplicaStatus{Status: http.StatusBadGateway, Error: err.Error()}
			continue
		}
		snap.PerReplica[rp.id] = ReplicaStatus{Status: f.status, Body: rawJSON(f.body)}
	}
	sort.Strings(snap.Replicas)
	return serve.WriteJSON(w, http.StatusOK, snap)
}

// downList copies the down map for rendering.
func (rt *Router) downList() map[string]string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if len(rt.down) == 0 {
		return nil
	}
	out := make(map[string]string, len(rt.down))
	for k, v := range rt.down {
		out[k] = v
	}
	return out
}

// ---- control-plane fan-out ----

// fanOut drives one control operation across every live replica under
// the control mutex, so two concurrent reloads cannot interleave and
// leave replicas on different versions. Per-replica outcomes are
// reported individually: a replica that rejects a reload keeps its old
// model serving (the PR 8 guarantee), and in-flight sessions everywhere
// stay pinned to the version they started on, so a partially-applied
// fan-out degrades to mixed versions, never to broken sessions.
func (rt *Router) fanOut(w http.ResponseWriter, r *http.Request, op string) error {
	name := r.PathValue("name")
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return err
	}
	rt.ctl.Lock()
	defer rt.ctl.Unlock()
	reps := rt.live()
	if len(reps) == 0 {
		return errNoReplicas
	}
	perReplica := map[string]ReplicaStatus{}
	overall := http.StatusOK
	for _, rp := range reps {
		f, err := rt.forward(r, rp, http.MethodPost, "/v1/models/"+name+"/"+op, body)
		if err != nil {
			rt.markDown(rp.id, err)
			perReplica[rp.id] = ReplicaStatus{Status: http.StatusBadGateway, Error: err.Error()}
			if overall == http.StatusOK {
				overall = http.StatusBadGateway
			}
			continue
		}
		perReplica[rp.id] = ReplicaStatus{Status: f.status, Body: rawJSON(f.body)}
		if f.status != http.StatusOK && overall == http.StatusOK {
			overall = f.status
		}
	}
	rt.cfg.Obs.Emit("fleet_"+op, map[string]any{
		"model": name, "ok": overall == http.StatusOK, "replicas": len(reps),
	})
	return serve.WriteJSON(w, overall, map[string]any{
		"model": name, "op": op, "replicas": perReplica,
	})
}

func (rt *Router) handleReload(w http.ResponseWriter, r *http.Request, _ *fleetInfo) error {
	return rt.fanOut(w, r, "reload")
}

func (rt *Router) handleRollback(w http.ResponseWriter, r *http.Request, _ *fleetInfo) error {
	return rt.fanOut(w, r, "rollback")
}

// rawJSON passes a backend body through as-is when it is valid JSON,
// and quotes it as a string otherwise, so aggregation never produces an
// unparseable document.
func rawJSON(b []byte) json.RawMessage {
	if json.Valid(b) && len(b) > 0 {
		return json.RawMessage(b)
	}
	quoted, _ := json.Marshal(string(b))
	return json.RawMessage(quoted)
}
