package serve

import (
	"context"
	"net/http"
	"time"
)

// Admission control and load shedding. The serving plane protects
// itself from overload in three layers, all ahead of the expensive
// classify work:
//
//  1. per-tenant token buckets — a tenant (X-Etsc-Tenant header or
//     ?tenant= query, "default" otherwise) exceeding its refill rate
//     gets 429 with a Retry-After telling it when a token frees;
//  2. a bounded admission queue in front of the worker semaphore —
//     when every classification slot is busy a request may wait, but
//     only QueueDepth requests deep and only QueueTimeout long; past
//     either bound it is shed with 503 instead of piling latency onto
//     everyone behind it;
//  3. drain mode — a terminating server stops admitting (503 +
//     Connection: close) while in-flight requests finish.
//
// Meta routes (health probes, the stats plane) are never shed: an
// overloaded server must stay observable.

// tenantKey resolves the requester's tenant for quota accounting.
func tenantKey(r *http.Request) string {
	if t := r.Header.Get("X-Etsc-Tenant"); t != "" {
		return t
	}
	if t := r.URL.Query().Get("tenant"); t != "" {
		return t
	}
	return "default"
}

// tokenBucket is one tenant's quota state; guarded by tenantLimiter.mu.
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// tenantLimiter is a classic token-bucket rate limiter keyed by tenant.
// Buckets refill continuously at rps up to burst; a request costs one
// token. The map is bounded: when it outgrows maxTenants, full buckets
// idle past a minute are swept.
type tenantLimiter struct {
	rps   float64
	burst float64
	now   func() time.Time

	mu      chan struct{} // 1-buffered: a mutex tests can't deadlock on
	buckets map[string]*tokenBucket
}

const maxTenants = 4096

func newTenantLimiter(rps float64, burst int) *tenantLimiter {
	if rps <= 0 {
		return nil
	}
	if burst <= 0 {
		burst = int(2 * rps)
		if burst < 1 {
			burst = 1
		}
	}
	l := &tenantLimiter{
		rps: rps, burst: float64(burst), now: time.Now,
		mu: make(chan struct{}, 1), buckets: map[string]*tokenBucket{},
	}
	return l
}

// allow spends one token from the tenant's bucket. When the bucket is
// empty it reports how long until the next token refills — the 429
// response's Retry-After.
func (l *tenantLimiter) allow(tenant string) (bool, time.Duration) {
	if l == nil {
		return true, 0
	}
	now := l.now()
	l.mu <- struct{}{}
	defer func() { <-l.mu }()
	b, ok := l.buckets[tenant]
	if !ok {
		if len(l.buckets) >= maxTenants {
			l.sweep(now)
		}
		b = &tokenBucket{tokens: l.burst, last: now}
		l.buckets[tenant] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * l.rps
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / l.rps * float64(time.Second))
	return false, wait
}

// sweep drops full, idle buckets; callers hold the lock.
func (l *tenantLimiter) sweep(now time.Time) {
	for k, b := range l.buckets {
		if b.tokens >= l.burst-1e-9 && now.Sub(b.last) > time.Minute {
			delete(l.buckets, k)
		}
	}
}

// acquire reserves one classification slot. The fast path takes a free
// slot immediately; otherwise the request enters the bounded admission
// queue and is shed (503) when the queue is full, when it has waited
// QueueTimeout, or when its own deadline/client is gone. This keeps the
// latency of *admitted* requests flat under any offered load: the worst
// case added wait is QueueTimeout, never an unbounded backlog.
func (s *Server) acquire(r *http.Request) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.QueueDepth) {
		s.queued.Add(-1)
		s.shed(shedOverload)
		return errOverloaded("admission queue full")
	}
	defer s.queued.Add(-1)
	timer := time.NewTimer(s.cfg.QueueTimeout)
	defer timer.Stop()
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-timer.C:
		s.shed(shedOverload)
		return errOverloaded("queued longer than the admission deadline")
	case <-r.Context().Done():
		if r.Context().Err() == context.DeadlineExceeded {
			s.shed(shedOverload)
		}
		return r.Context().Err()
	}
}

func (s *Server) release() { <-s.sem }

// errOverloaded is the load-shedding 503; distinct from quota 429s so
// clients can tell "server is saturated" from "you are over quota".
func errOverloaded(why string) *apiError {
	return errk(http.StatusServiceUnavailable, "overloaded", "server overloaded: %s", why)
}

// Shed reasons index the server's shed counters.
const (
	shedQuota = iota
	shedOverload
	shedDraining
	numShedReasons
)

var shedReasonNames = [numShedReasons]string{"quota", "overload", "draining"}

// shed counts one rejected request by reason (Prometheus + /v1/stats).
func (s *Server) shed(reason int) {
	s.shedCounts[reason].Add(1)
	s.shedProm[reason].Inc()
}

// admit runs the admission checks for one work-plane request: drain
// gate first, then the tenant quota. Returning an error sheds the
// request before any classification state is touched.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) error {
	if s.draining.Load() {
		s.shed(shedDraining)
		return DrainingError(w)
	}
	if ok, wait := s.tenants.allow(tenantKey(r)); !ok {
		s.shed(shedQuota)
		ae := errk(http.StatusTooManyRequests, "quota",
			"tenant %q over rate limit", tenantKey(r))
		ae.retryAfter = wait
		return ae
	}
	return nil
}

// DrainingError is the answer to a work-plane request that reaches a
// draining server or fleet router: 503, kind "draining", and a
// Connection: close that tells clients (and their load balancer) to
// reconnect elsewhere.
func DrainingError(w http.ResponseWriter) error {
	w.Header().Set("Connection", "close")
	return errk(http.StatusServiceUnavailable, "draining", "server is draining")
}

// Drain puts the server into drain mode and waits for in-flight
// work-plane requests to finish (bounded by ctx): new work is refused
// with 503 + Connection: close, meta routes keep answering so probes
// see the drain, and a drain_complete event is journaled with the
// in-flight count flushed and the sessions left live. It returns nil
// once the server is idle, or ctx.Err() when the deadline cut the wait
// short.
func (s *Server) Drain(ctx context.Context) error {
	if s.draining.Swap(true) {
		return nil // already draining
	}
	started := time.Now()
	inflight := s.inflightWork.Load()
	s.cfg.Obs.Emit("drain_started", map[string]any{"inflight": inflight})
	var err error
	for s.inflightWork.Load() > 0 {
		select {
		case <-ctx.Done():
			err = ctx.Err()
		case <-time.After(2 * time.Millisecond):
			continue
		}
		break
	}
	s.mu.RLock()
	live := len(s.sessions)
	s.mu.RUnlock()
	s.cfg.Obs.Emit("drain_complete", map[string]any{
		"flushed":       inflight - s.inflightWork.Load(),
		"remaining":     s.inflightWork.Load(),
		"live_sessions": live,
		"wall_ms":       float64(time.Since(started)) / float64(time.Millisecond),
		"clean":         err == nil,
	})
	return err
}

// Draining reports whether Drain has been initiated.
func (s *Server) Draining() bool { return s.draining.Load() }
