package loadgen

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/goetsc/goetsc/internal/obs"
)

// Churn mode: instead of replaying instances one conversation at a
// time, hold a large population of streaming sessions live at once and
// keep turning them over — create, advance in chunks, decide or abandon,
// close, create the next. This is the fleet router's sizing workload:
// every live session is a pinned hash slot plus a cursor on some
// replica, and the create/advance/close mix exercises placement,
// frozen-decision reads and pin teardown together. Latency is reported
// per phase, because a router that heals sessions pays on the advance
// path while one that mis-places them pays on create.

// ChurnConfig parameterizes one churn run.
type ChurnConfig struct {
	BaseURL string
	Model   string
	// Instances are the series to stream; session i streams instance
	// i % len(Instances).
	Instances [][][]float64
	// Sessions is the target concurrent live-session population.
	// Default 256.
	Sessions int
	// Total is how many sessions to run to completion (decided or
	// abandoned). Default 2×Sessions, so the population fully turns
	// over at least once after ramp-up.
	Total int
	// ChunkSize is points per /points batch. Default 8.
	ChunkSize int
	// Clients is the worker (and connection) count; each worker owns
	// Sessions/Clients session slots. Default 16.
	Clients int
	// AbandonEvery, when positive, abandons every k-th session while it
	// is still pending: the client walks away with a DELETE before
	// streaming any points — the evict slice of the create/advance/evict
	// mix. (Early classifiers decide within a few points, so any later
	// walk-away point would race the decision; abandoning pre-stream is
	// the one moment a session is deterministically pending.) Default 0:
	// stream everything to a decision.
	AbandonEvery int
	// Timeout bounds one request. Default 30s.
	Timeout time.Duration
	// References enables parity checking of decided sessions against
	// offline decisions, indexed like Instances.
	References []Reference
	// Tenant stamps X-Etsc-Tenant on every request.
	Tenant string
}

func (c ChurnConfig) withDefaults() (ChurnConfig, error) {
	if c.BaseURL == "" || c.Model == "" {
		return c, fmt.Errorf("loadgen: BaseURL and Model are required")
	}
	if len(c.Instances) == 0 {
		return c, fmt.Errorf("loadgen: at least one instance is required")
	}
	if c.Sessions <= 0 {
		c.Sessions = 256
	}
	if c.Total <= 0 {
		c.Total = 2 * c.Sessions
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = 8
	}
	if c.Clients <= 0 {
		c.Clients = 16
	}
	if c.Clients > c.Sessions {
		c.Clients = c.Sessions
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	return c, nil
}

// PhaseStats is one request phase's latency distribution.
type PhaseStats struct {
	Count int           `json:"count"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
	P99   time.Duration `json:"p99_ns"`
	Mean  time.Duration `json:"mean_ns"`
	Max   time.Duration `json:"max_ns"`
}

func phaseStats(samples []time.Duration) PhaseStats {
	if len(samples) == 0 {
		return PhaseStats{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var sum time.Duration
	for _, d := range samples {
		sum += d
	}
	return PhaseStats{
		Count: len(samples),
		P50:   percentile(samples, 0.50),
		P95:   percentile(samples, 0.95),
		P99:   percentile(samples, 0.99),
		Mean:  sum / time.Duration(len(samples)),
		Max:   samples[len(samples)-1],
	}
}

// ChurnResult is one churn run's outcome.
type ChurnResult struct {
	Sessions       int `json:"sessions"` // run to completion (decided + abandoned)
	Decided        int `json:"decided"`
	Abandoned      int `json:"abandoned"`
	Errors         int `json:"errors"`
	Shed           int `json:"shed"`
	PeakConcurrent int `json:"peak_concurrent"`

	Create  PhaseStats `json:"create"`
	Advance PhaseStats `json:"advance"`
	Close   PhaseStats `json:"close"`
	// Session measures whole-session wall time, create through close.
	Session PhaseStats `json:"session"`

	SessionsPerSec float64       `json:"sessions_per_sec"`
	AdvancesPerSec float64       `json:"advances_per_sec"`
	Elapsed        time.Duration `json:"elapsed_ns"`

	ParityChecked    int `json:"parity_checked"`
	ParityMismatches int `json:"parity_mismatches"`
}

func (r ChurnResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "churn: %d sessions (%d decided, %d abandoned, %d errors, %d shed), peak %d concurrent, %.1f sessions/s, %.0f advances/s in %s\n",
		r.Sessions, r.Decided, r.Abandoned, r.Errors, r.Shed, r.PeakConcurrent,
		r.SessionsPerSec, r.AdvancesPerSec, r.Elapsed.Round(time.Millisecond))
	phase := func(name string, p PhaseStats) {
		if p.Count == 0 {
			return
		}
		fmt.Fprintf(&b, "  %-8s n=%-7d p50 %-10s p95 %-10s p99 %-10s max %s\n", name, p.Count,
			p.P50.Round(time.Microsecond), p.P95.Round(time.Microsecond),
			p.P99.Round(time.Microsecond), p.Max.Round(time.Microsecond))
	}
	phase("create", r.Create)
	phase("advance", r.Advance)
	phase("close", r.Close)
	phase("session", r.Session)
	if r.ParityChecked > 0 {
		fmt.Fprintf(&b, "  parity: %d checked, %d mismatches", r.ParityChecked, r.ParityMismatches)
	}
	return strings.TrimRight(b.String(), "\n")
}

// churnSlot is one live session owned by a worker.
type churnSlot struct {
	idx     int // global session index
	id      string
	tc      obs.TraceContext
	values  [][]float64
	sent    int // points streamed so far
	batches int
	start   time.Time
	abandon bool
}

// churnWorker accumulates one worker's samples; merged after the run.
type churnWorker struct {
	create, advance, close, session []time.Duration
	decided, abandoned, errors      int
	shed, parityChecked, mismatches int
}

// RunChurn drives the churn workload and reports per-phase latency and
// session throughput. Request errors abandon the slot and count as
// Errors (sheds separately); the run itself only fails on setup
// problems.
func RunChurn(cfg ChurnConfig) (ChurnResult, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return ChurnResult{}, err
	}
	client := pooledClient(cfg.Clients, cfg.Timeout)

	var (
		next     atomic.Int64 // next session index to start
		live     atomic.Int64
		peak     atomic.Int64
		advances atomic.Int64
	)
	perWorker := (cfg.Sessions + cfg.Clients - 1) / cfg.Clients

	start := time.Now()
	workers := make([]*churnWorker, cfg.Clients)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Clients; w++ {
		cw := &churnWorker{}
		workers[w] = cw
		wg.Add(1)
		go func() {
			defer wg.Done()
			slots := make([]*churnSlot, perWorker)
			for {
				progress := false
				for i := range slots {
					if slots[i] == nil {
						idx := int(next.Add(1)) - 1
						if idx >= cfg.Total {
							continue
						}
						progress = true
						if s := cw.createSession(client, cfg, idx); s != nil {
							slots[i] = s
							if cur := live.Add(1); cur > peak.Load() {
								peak.Store(cur) // racy max; close enough for a gauge
							}
						}
						continue
					}
					progress = true
					if cw.stepSession(client, cfg, slots[i], &advances) {
						live.Add(-1)
						slots[i] = nil
					}
				}
				if !progress {
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := ChurnResult{Elapsed: elapsed, PeakConcurrent: int(peak.Load())}
	var createS, advanceS, closeS, sessionS []time.Duration
	for _, cw := range workers {
		createS = append(createS, cw.create...)
		advanceS = append(advanceS, cw.advance...)
		closeS = append(closeS, cw.close...)
		sessionS = append(sessionS, cw.session...)
		res.Decided += cw.decided
		res.Abandoned += cw.abandoned
		res.Errors += cw.errors
		res.Shed += cw.shed
		res.ParityChecked += cw.parityChecked
		res.ParityMismatches += cw.mismatches
	}
	res.Sessions = res.Decided + res.Abandoned
	res.Create = phaseStats(createS)
	res.Advance = phaseStats(advanceS)
	res.Close = phaseStats(closeS)
	res.Session = phaseStats(sessionS)
	if elapsed > 0 {
		res.SessionsPerSec = float64(res.Sessions) / elapsed.Seconds()
		res.AdvancesPerSec = float64(advances.Load()) / elapsed.Seconds()
	}
	return res, nil
}

// createSession opens session idx; nil means the create failed (counted
// on the worker).
func (cw *churnWorker) createSession(client *http.Client, cfg ChurnConfig, idx int) *churnSlot {
	s := &churnSlot{
		idx:    idx,
		tc:     obs.NewTraceContext(),
		values: cfg.Instances[idx%len(cfg.Instances)],
		start:  time.Now(),
	}
	if cfg.AbandonEvery > 0 && idx%cfg.AbandonEvery == cfg.AbandonEvery-1 {
		s.abandon = true
	}
	var st sessionState
	t0 := time.Now()
	err := postJSON(client, cfg.BaseURL+"/v1/sessions", s.tc, cfg.Tenant,
		map[string]any{"model": cfg.Model}, &st)
	cw.create = append(cw.create, time.Since(t0))
	if err != nil {
		cw.fail(err)
		return nil
	}
	s.id = st.SessionID
	return s
}

// stepSession advances one slot by one chunk; true means the slot is
// finished (decided, abandoned, or failed) and was closed.
func (cw *churnWorker) stepSession(client *http.Client, cfg ChurnConfig, s *churnSlot, advances *atomic.Int64) bool {
	// The evict slice of the mix: marked sessions walk away while still
	// pending, exactly the client behavior TTL eviction and pin teardown
	// absorb at scale.
	if s.abandon {
		cw.abandoned++
		cw.closeSession(client, cfg, s)
		cw.session = append(cw.session, time.Since(s.start))
		return true
	}
	n := len(s.values[0])
	lo := s.sent
	hi := lo + cfg.ChunkSize
	if hi > n {
		hi = n
	}
	batch := make([][]float64, len(s.values))
	for v := range s.values {
		batch[v] = s.values[v][lo:hi]
	}
	var st sessionState
	t0 := time.Now()
	err := postJSON(client, cfg.BaseURL+"/v1/sessions/"+s.id+"/points", s.tc, cfg.Tenant,
		map[string]any{"values": batch, "last": hi == n}, &st)
	cw.advance = append(cw.advance, time.Since(t0))
	if err != nil {
		cw.fail(err)
		cw.closeSession(client, cfg, s)
		return true
	}
	advances.Add(1)
	s.sent = hi
	s.batches++

	if st.Status == "decided" {
		if len(cfg.References) > 0 && st.Label != nil && st.Consumed != nil {
			ref := cfg.References[s.idx%len(cfg.References)]
			cw.parityChecked++
			if *st.Label != ref.Label || *st.Consumed != ref.Consumed {
				cw.mismatches++
			}
		}
		cw.decided++
		cw.closeSession(client, cfg, s)
		cw.session = append(cw.session, time.Since(s.start))
		return true
	}
	if s.sent >= n {
		// Streamed everything with last=true yet still pending: the
		// server contract says this cannot happen.
		cw.errors++
		cw.closeSession(client, cfg, s)
		return true
	}
	return false
}

func (cw *churnWorker) closeSession(client *http.Client, cfg ChurnConfig, s *churnSlot) {
	if s.id == "" {
		return
	}
	req, err := http.NewRequest(http.MethodDelete, cfg.BaseURL+"/v1/sessions/"+s.id, nil)
	if err != nil {
		return
	}
	req.Header.Set(obs.TraceHeader, s.tc.Child().Header())
	if cfg.Tenant != "" {
		req.Header.Set("X-Etsc-Tenant", cfg.Tenant)
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	cw.close = append(cw.close, time.Since(t0))
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

func (cw *churnWorker) fail(err error) {
	if IsShed(err) {
		cw.shed++
	} else {
		cw.errors++
	}
}
