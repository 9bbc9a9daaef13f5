// Package loadgen replays time-series instances against a running
// etsc-serve instance at a target request rate, measuring client-side
// latency percentiles and throughput, and optionally checking that every
// served decision matches an offline reference — the serving layer's
// answer to the framework's offline reproducibility requirement.
package loadgen

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/goetsc/goetsc/internal/obs"
)

// Mode selects the request shape.
type Mode string

const (
	// ModeClassify sends each instance as one POST /v1/classify.
	ModeClassify Mode = "classify"
	// ModeSession streams each instance through a session in chunks.
	ModeSession Mode = "session"
)

// Reference is an offline decision to compare a served decision against.
type Reference struct {
	Label    int
	Consumed int
}

// Config describes one load run.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Model is the served model name.
	Model string
	// Instances is the replay pool, each [variable][time]. Request i uses
	// instance i % len(Instances).
	Instances [][][]float64
	// RPS is the target request rate (instances per second). <= 0 means
	// unpaced: clients send as fast as they can.
	RPS float64
	// Clients is the number of concurrent workers; default 1.
	Clients int
	// Total is the number of instances to send; default len(Instances).
	Total int
	// Mode selects one-shot or streaming requests; default ModeClassify.
	Mode Mode
	// ChunkSize is the points-per-request batch in session mode; default 8.
	ChunkSize int
	// Timeout bounds each HTTP request; default 30s.
	Timeout time.Duration
	// References, when non-nil, holds the offline decision for each
	// instance (parallel to Instances); mismatching served decisions are
	// counted in Result.ParityMismatches.
	References []Reference
	// CollectTraces keeps one TraceRecord per replayed instance in
	// Result.Traces, for joining against the server journal's access
	// records (see Correlate). Tracing headers are always sent; this flag
	// only controls client-side retention.
	CollectTraces bool
	// Tenant, when set, is sent as the X-Etsc-Tenant header on every
	// request, attributing the load to one tenant's quota.
	Tenant string
}

func (c Config) withDefaults() (Config, error) {
	if c.BaseURL == "" || c.Model == "" {
		return c, fmt.Errorf("loadgen: BaseURL and Model are required")
	}
	if len(c.Instances) == 0 {
		return c, fmt.Errorf("loadgen: at least one instance is required")
	}
	if c.References != nil && len(c.References) != len(c.Instances) {
		return c, fmt.Errorf("loadgen: %d references for %d instances", len(c.References), len(c.Instances))
	}
	if c.Clients <= 0 {
		c.Clients = 1
	}
	if c.Total <= 0 {
		c.Total = len(c.Instances)
	}
	if c.Mode == "" {
		c.Mode = ModeClassify
	}
	if c.Mode != ModeClassify && c.Mode != ModeSession {
		return c, fmt.Errorf("loadgen: unknown mode %q", c.Mode)
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = 8
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	return c, nil
}

// Result summarizes one load run. Latencies are per instance: in session
// mode one sample spans the whole create→decide→close conversation, and
// the Advance* fields additionally break out the per-batch /points
// requests — the cost of advancing the live cursor — which is what the
// incremental engine optimizes.
type Result struct {
	Mode             Mode          `json:"mode"`
	Sent             int           `json:"sent"`
	Errors           int           `json:"errors"`
	ParityChecked    int           `json:"parity_checked"`
	ParityMismatches int           `json:"parity_mismatches"`
	P50              time.Duration `json:"p50_ns"`
	P95              time.Duration `json:"p95_ns"`
	P99              time.Duration `json:"p99_ns"`
	Mean             time.Duration `json:"mean_ns"`
	Max              time.Duration `json:"max_ns"`
	Throughput       float64       `json:"throughput_rps"`
	Elapsed          time.Duration `json:"elapsed_ns"`

	// Shed counts instances the server rejected with 429/503 — admission
	// control doing its job under overload, reported separately from
	// Errors (real failures). Latency percentiles cover only admitted,
	// successful instances, so under overload P99 is the admitted p99.
	// Goodput is those instances per second of wall time.
	Shed     int     `json:"shed,omitempty"`
	ShedRate float64 `json:"shed_rate,omitempty"`
	Goodput  float64 `json:"goodput_rps,omitempty"`

	// Session mode only: latency of the individual /points batches.
	AdvanceCount int           `json:"advance_count,omitempty"`
	AdvanceP50   time.Duration `json:"advance_p50_ns,omitempty"`
	AdvanceP95   time.Duration `json:"advance_p95_ns,omitempty"`
	AdvanceP99   time.Duration `json:"advance_p99_ns,omitempty"`
	AdvanceMean  time.Duration `json:"advance_mean_ns,omitempty"`
	AdvanceMax   time.Duration `json:"advance_max_ns,omitempty"`

	// Traces holds one record per replayed instance when
	// Config.CollectTraces is set; Correlate joins them against the
	// server journal.
	Traces []TraceRecord `json:"traces,omitempty"`
}

// TraceRecord is the client side of one traced conversation: every HTTP
// request a replayed instance issued (one for classify; create, points
// batches and delete for a session) carried this trace ID.
type TraceRecord struct {
	Trace    string        `json:"trace"`
	Instance int           `json:"instance"`
	Requests int           `json:"requests"`
	Latency  time.Duration `json:"latency_ns"`
	Err      bool          `json:"err,omitempty"`
}

// String renders the human-readable report line.
func (r Result) String() string {
	s := fmt.Sprintf("%s: %d sent, %d errors, p50=%s p95=%s p99=%s mean=%s max=%s, %.1f req/s over %s",
		r.Mode, r.Sent, r.Errors,
		r.P50.Round(time.Microsecond), r.P95.Round(time.Microsecond), r.P99.Round(time.Microsecond),
		r.Mean.Round(time.Microsecond), r.Max.Round(time.Microsecond), r.Throughput, r.Elapsed.Round(time.Millisecond))
	if r.AdvanceCount > 0 {
		s += fmt.Sprintf("\n  advance: %d batches, p50=%s p95=%s p99=%s mean=%s max=%s",
			r.AdvanceCount,
			r.AdvanceP50.Round(time.Microsecond), r.AdvanceP95.Round(time.Microsecond),
			r.AdvanceP99.Round(time.Microsecond), r.AdvanceMean.Round(time.Microsecond),
			r.AdvanceMax.Round(time.Microsecond))
	}
	if r.Shed > 0 {
		s += fmt.Sprintf("\n  overload: %d shed (%.1f%%), goodput %.1f req/s, admitted p99=%s",
			r.Shed, r.ShedRate*100, r.Goodput, r.P99.Round(time.Microsecond))
	}
	if r.ParityChecked > 0 {
		s += fmt.Sprintf(", parity %d/%d", r.ParityChecked-r.ParityMismatches, r.ParityChecked)
	}
	return s
}

// decision is the served answer for one instance.
type decision struct {
	Label    int
	Consumed int
}

// Run drives the load: Clients workers pull paced jobs and replay
// instances until Total requests have been sent.
func Run(cfg Config) (Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}
	client := pooledClient(cfg.Clients, cfg.Timeout)
	// Classify bodies are encoded once per instance, not once per
	// request: under overload every shed request would otherwise pay
	// the encoding again, spending CPU the admitted requests need.
	var bodies [][]byte
	if cfg.Mode == ModeClassify {
		bodies = make([][]byte, len(cfg.Instances))
		for i, values := range cfg.Instances {
			if bodies[i], err = json.Marshal(map[string]any{"model": cfg.Model, "values": values}); err != nil {
				return Result{}, err
			}
		}
	}

	// The pacer drops one token per request interval; unpaced runs use a
	// closed channel so receives never block.
	jobs := make(chan int)
	go func() {
		defer close(jobs)
		if cfg.RPS > 0 {
			interval := time.Duration(float64(time.Second) / cfg.RPS)
			ticker := time.NewTicker(interval)
			defer ticker.Stop()
			for i := 0; i < cfg.Total; i++ {
				<-ticker.C
				jobs <- i
			}
		} else {
			for i := 0; i < cfg.Total; i++ {
				jobs <- i
			}
		}
	}()

	type sample struct {
		latency  time.Duration
		advances []time.Duration // session mode: per /points batch
		err      error
		instance int
		dec      decision
		trace    obs.TraceID
		requests int
	}
	samples := make([]sample, 0, cfg.Total)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				idx := i % len(cfg.Instances)
				// One trace per replayed instance: every request in the
				// conversation carries it, each with a fresh client span.
				tc := obs.NewTraceContext()
				t0 := time.Now()
				var dec decision
				var advances []time.Duration
				var err error
				var reqs int
				switch cfg.Mode {
				case ModeClassify:
					dec, err = classifyOnce(client, cfg.BaseURL, bodies[idx], tc, cfg.Tenant)
					reqs = 1
				case ModeSession:
					dec, advances, reqs, err = streamOnce(client, cfg.BaseURL, cfg.Model, cfg.Instances[idx], cfg.ChunkSize, tc, cfg.Tenant)
				}
				s := sample{latency: time.Since(t0), advances: advances, err: err, instance: idx, dec: dec,
					trace: tc.Trace, requests: reqs}
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := Result{Mode: cfg.Mode, Sent: len(samples), Elapsed: elapsed}
	latencies := make([]time.Duration, 0, len(samples))
	var advances []time.Duration
	for _, s := range samples {
		if s.err != nil {
			if IsShed(s.err) {
				res.Shed++
			} else {
				res.Errors++
			}
			continue
		}
		latencies = append(latencies, s.latency)
		advances = append(advances, s.advances...)
		if cfg.References != nil {
			res.ParityChecked++
			ref := cfg.References[s.instance]
			if s.dec.Label != ref.Label || s.dec.Consumed != ref.Consumed {
				res.ParityMismatches++
			}
		}
	}
	if cfg.CollectTraces {
		res.Traces = make([]TraceRecord, 0, len(samples))
		for _, s := range samples {
			res.Traces = append(res.Traces, TraceRecord{
				Trace: s.trace.String(), Instance: s.instance,
				Requests: s.requests, Latency: s.latency, Err: s.err != nil,
			})
		}
	}
	lat, adv := phaseStats(latencies), phaseStats(advances)
	res.P50, res.P95, res.P99, res.Mean, res.Max = lat.P50, lat.P95, lat.P99, lat.Mean, lat.Max
	res.AdvanceCount, res.AdvanceP50, res.AdvanceP95 = adv.Count, adv.P50, adv.P95
	res.AdvanceP99, res.AdvanceMean, res.AdvanceMax = adv.P99, adv.Mean, adv.Max
	if elapsed > 0 {
		res.Throughput = float64(len(samples)) / elapsed.Seconds()
		res.Goodput = float64(len(latencies)) / elapsed.Seconds()
	}
	if res.Sent > 0 {
		res.ShedRate = float64(res.Shed) / float64(res.Sent)
	}
	return res, nil
}

// statusError carries the HTTP status of a non-2xx response so callers
// can tell an admission-control rejection from a real failure.
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string { return e.msg }

// IsShed reports whether the error is a server-side admission rejection:
// 429 (tenant over quota) or 503 (overload shedding, breaker open,
// draining). Under deliberate overload these are the server working as
// designed, not failures.
func IsShed(err error) bool {
	var se *statusError
	return errors.As(err, &se) &&
		(se.status == http.StatusTooManyRequests || se.status == http.StatusServiceUnavailable)
}

// pooledClient returns an HTTP client that keeps one warm connection
// per concurrent worker: the default transport keeps only two idle
// connections per host, so a run with dozens of workers would redial
// constantly and bill the handshakes to the measured latency.
func pooledClient(workers int, timeout time.Duration) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = workers + 2
	tr.MaxIdleConnsPerHost = workers
	return &http.Client{Timeout: timeout, Transport: tr}
}

// percentile reads the nearest-rank percentile from sorted samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// classifyOnce sends one /v1/classify request with an encoded body.
func classifyOnce(client *http.Client, baseURL string, body []byte, tc obs.TraceContext, tenant string) (decision, error) {
	var resp struct {
		Label    int `json:"label"`
		Consumed int `json:"consumed"`
	}
	err := postJSON(client, baseURL+"/v1/classify", tc, tenant, body, &resp)
	return decision{Label: resp.Label, Consumed: resp.Consumed}, err
}

// sessionState mirrors the server's session JSON.
type sessionState struct {
	SessionID string `json:"session_id"`
	Status    string `json:"status"`
	Label     *int   `json:"label"`
	Consumed  *int   `json:"consumed"`
	Length    int    `json:"length"`
}

// streamOnce replays one instance through a streaming session and
// deletes the session afterwards. It returns the latency of each
// /points batch alongside the decision and the number of HTTP requests
// issued, so callers can separate cursor advance cost from session
// bookkeeping and join the conversation against the server journal.
func streamOnce(client *http.Client, baseURL, model string, values [][]float64, chunk int, tc obs.TraceContext, tenant string) (dec decision, advances []time.Duration, reqs int, err error) {
	var st sessionState
	reqs++
	if err := postJSON(client, baseURL+"/v1/sessions", tc, tenant, map[string]any{"model": model}, &st); err != nil {
		return decision{}, nil, reqs, err
	}
	base := baseURL + "/v1/sessions/" + st.SessionID
	defer func() {
		req, rerr := http.NewRequest(http.MethodDelete, base, nil)
		if rerr != nil {
			return
		}
		req.Header.Set(obs.TraceHeader, tc.Child().Header())
		if tenant != "" {
			req.Header.Set("X-Etsc-Tenant", tenant)
		}
		reqs++
		if resp, derr := client.Do(req); derr == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	n := len(values[0])
	advances = make([]time.Duration, 0, (n+chunk-1)/chunk)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		batch := make([][]float64, len(values))
		for v := range values {
			batch[v] = values[v][lo:hi]
		}
		t0 := time.Now()
		reqs++
		if err := postJSON(client, base+"/points", tc, tenant,
			map[string]any{"values": batch, "last": hi == n}, &st); err != nil {
			return decision{}, advances, reqs, err
		}
		advances = append(advances, time.Since(t0))
		if st.Status == "decided" {
			break
		}
	}
	if st.Status != "decided" || st.Label == nil || st.Consumed == nil {
		return decision{}, advances, reqs, fmt.Errorf("loadgen: session ended %q without a decision", st.Status)
	}
	return decision{Label: *st.Label, Consumed: *st.Consumed}, advances, reqs, nil
}

// postJSON sends one JSON request and decodes the JSON response,
// treating non-2xx statuses as errors carrying the server's message. A
// []byte body is sent as already-encoded JSON. Each request carries the
// conversation's trace ID under a fresh client span, matching what a
// traced production caller would send.
func postJSON(client *http.Client, url string, tc obs.TraceContext, tenant string, body, out any) error {
	b, ok := body.([]byte)
	if !ok {
		var err error
		if b, err = json.Marshal(body); err != nil {
			return err
		}
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if tc.Valid() {
		req.Header.Set(obs.TraceHeader, tc.Child().Header())
	}
	if tenant != "" {
		req.Header.Set("X-Etsc-Tenant", tenant)
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var apiErr struct {
			Error string `json:"error"`
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		if json.Unmarshal(msg, &apiErr) == nil && apiErr.Error != "" {
			return &statusError{status: resp.StatusCode,
				msg: fmt.Sprintf("loadgen: %s: %d: %s", url, resp.StatusCode, apiErr.Error)}
		}
		return &statusError{status: resp.StatusCode,
			msg: fmt.Sprintf("loadgen: %s: status %d", url, resp.StatusCode)}
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
