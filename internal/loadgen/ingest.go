package loadgen

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/goetsc/goetsc/internal/ingest"
)

// IngestConfig describes one continuous-ingest replay: an interleaved
// entity event stream driven at a target events/sec through one
// streaming POST /v1/ingest request. Per-entity ordering is preserved
// by construction — the stream is one connection, events go out in
// slice order.
type IngestConfig struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Path is the ingest endpoint; default "/v1/ingest".
	Path string
	// Events is the interleaved stream to replay, in order.
	Events []ingest.Event
	// EPS is the target event rate (events per second). <= 0 replays
	// unpaced.
	EPS float64
	// Timeout bounds the whole streaming request; default 5m.
	Timeout time.Duration
}

func (c IngestConfig) withDefaults() (IngestConfig, error) {
	if c.BaseURL == "" {
		return c, fmt.Errorf("loadgen: BaseURL is required")
	}
	if len(c.Events) == 0 {
		return c, fmt.Errorf("loadgen: at least one event is required")
	}
	if c.Path == "" {
		c.Path = "/v1/ingest"
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Minute
	}
	return c, nil
}

// IngestResult summarizes one ingest replay. Decision latency is
// client-observed: the gap between sending an entity's most recent
// event and that entity's decision line arriving — the freshness of the
// pipeline's answers as the stream flows. Churn counters come from the
// server's trailing summary line.
type IngestResult struct {
	Events     int            `json:"events"`
	Decisions  int            `json:"decisions"`
	Errors     int            `json:"errors"`
	P50        time.Duration  `json:"p50_ns"`
	P95        time.Duration  `json:"p95_ns"`
	P99        time.Duration  `json:"p99_ns"`
	Mean       time.Duration  `json:"mean_ns"`
	Max        time.Duration  `json:"max_ns"`
	Throughput float64        `json:"throughput_eps"`
	Elapsed    time.Duration  `json:"elapsed_ns"`
	Summary    ingest.Summary `json:"summary"`
}

// String renders the human-readable report line.
func (r IngestResult) String() string {
	s := fmt.Sprintf("ingest: %d events, %d decisions, p50=%s p95=%s p99=%s mean=%s max=%s, %.1f events/s over %s",
		r.Events, r.Decisions,
		r.P50.Round(time.Microsecond), r.P95.Round(time.Microsecond), r.P99.Round(time.Microsecond),
		r.Mean.Round(time.Microsecond), r.Max.Round(time.Microsecond), r.Throughput, r.Elapsed.Round(time.Millisecond))
	st := r.Summary.Stats
	s += fmt.Sprintf("\n  churn: %d entities created, %d evicted, %d windows, %d late, %d shed",
		st.EntitiesCreated, st.EntitiesEvicted, st.Windows, st.Late, st.Shed)
	if st.DriftTrips > 0 || st.Retrains > 0 {
		s += fmt.Sprintf("\n  drift: %d trips, %d retrains (%d failed), %d swaps",
			st.DriftTrips, st.Retrains, st.RetrainFailures, st.Swaps)
	}
	return s
}

// RunIngest streams the events through one NDJSON request, reading
// decision lines as they arrive. The server's backpressure propagates
// into the pacer: a full pipeline slows the body write, so the achieved
// rate reports what the server actually sustained.
func RunIngest(cfg IngestConfig) (IngestResult, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return IngestResult{}, err
	}
	// lastSend tracks, per entity, when its most recent event went out;
	// decision latency for the entity reads and clears it.
	var mu sync.Mutex
	lastSend := make(map[string]time.Time)

	pr, pw := io.Pipe()
	start := time.Now()
	writeErr := make(chan error, 1)
	go func() {
		defer pw.Close()
		enc := bufio.NewWriter(pw)
		var interval time.Duration
		if cfg.EPS > 0 {
			interval = time.Duration(float64(time.Second) / cfg.EPS)
		}
		for i, ev := range cfg.Events {
			if interval > 0 {
				// Absolute schedule, not sleep-per-event: drift from a slow
				// write is made up instead of compounding.
				if wait := start.Add(time.Duration(i) * interval).Sub(time.Now()); wait > 0 {
					time.Sleep(wait)
				}
			}
			b, err := json.Marshal(ev)
			if err != nil {
				writeErr <- err
				return
			}
			mu.Lock()
			lastSend[ev.Entity] = time.Now()
			mu.Unlock()
			enc.Write(b)
			enc.WriteByte('\n')
			if interval > 0 || i%64 == 63 {
				// Paced streams flush per event so the server sees them on
				// schedule; unpaced streams batch for throughput.
				if err := enc.Flush(); err != nil {
					writeErr <- err
					return
				}
			}
		}
		writeErr <- enc.Flush()
	}()

	req, err := http.NewRequest(http.MethodPost, cfg.BaseURL+cfg.Path, pr)
	if err != nil {
		return IngestResult{}, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	client := &http.Client{Timeout: cfg.Timeout}
	resp, err := client.Do(req)
	if err != nil {
		return IngestResult{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return IngestResult{}, fmt.Errorf("loadgen: ingest: status %d: %s", resp.StatusCode, msg)
	}

	res := IngestResult{Events: len(cfg.Events)}
	var latencies []time.Duration
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Summary bool   `json:"summary"`
			Entity  string `json:"entity"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			res.Errors++
			continue
		}
		if probe.Summary {
			if err := json.Unmarshal(line, &res.Summary); err != nil {
				res.Errors++
			}
			continue
		}
		now := time.Now()
		res.Decisions++
		mu.Lock()
		sent, ok := lastSend[probe.Entity]
		mu.Unlock()
		if ok {
			latencies = append(latencies, now.Sub(sent))
		}
	}
	if err := sc.Err(); err != nil {
		return res, fmt.Errorf("loadgen: ingest: reading response: %w", err)
	}
	if err := <-writeErr; err != nil {
		return res, fmt.Errorf("loadgen: ingest: writing stream: %w", err)
	}
	if res.Summary.ReadError != "" {
		return res, fmt.Errorf("loadgen: ingest: server read error: %s", res.Summary.ReadError)
	}
	res.Elapsed = time.Since(start)
	lat := phaseStats(latencies)
	res.P50, res.P95, res.P99, res.Mean, res.Max = lat.P50, lat.P95, lat.P99, lat.Mean, lat.Max
	if res.Elapsed > 0 {
		res.Throughput = float64(res.Events) / res.Elapsed.Seconds()
	}
	return res, nil
}
