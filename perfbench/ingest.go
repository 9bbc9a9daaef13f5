package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/goetsc/goetsc/internal/core"
	"github.com/goetsc/goetsc/internal/ingest"
	"github.com/goetsc/goetsc/internal/persist"
	"github.com/goetsc/goetsc/internal/serve"
	"github.com/goetsc/goetsc/internal/synth"
	ts "github.com/goetsc/goetsc/internal/timeseries"
)

// The ingest workload streams one drifting NDJSON event stream per pass
// into /v1/ingest (ingest.Handler over a serve.Server registry, two
// shards). The stream switches regime halfway, which trips the drift
// detector, retrains ECTS in the background and hot-swaps it mid-stream:
// model writes (SwapModel, Fit) compete with per-window reads (Pin,
// Advance) for the same cores.
const (
	ingestModel  = "live"
	ingestLength = 30                   // points per window (one window per entity)
	ingestHeight = 384                  // entities per regime
	ingestTrain  = 32                   // training instances of the base model
	ingestCohort = 8                    // entities interleaved at a time
	ingestShards = 2                    // pipeline demux width
	ingestRate   = 16e3                 // events per second, open loop
	ingestTick   = 5 * time.Millisecond // events leave in bursts of rate × tick
)

// ingestData is the seeded data: the base model's training set and the
// stream's pre- and post-regime instances.
type ingestData struct{ train, pre, post *ts.Dataset }

func newIngestData(seed int64) ingestData {
	return ingestData{
		train: synth.RegimeDataset("regime", 1, 2, ingestTrain, ingestLength, seed, 0),
		pre:   synth.RegimeDataset("pre", 1, 2, ingestHeight, ingestLength, seed+1, 0),
		post:  synth.RegimeDataset("post", 1, 2, ingestHeight, ingestLength, seed+2, 1),
	}
}

// ingestInputs is the stream the client sends: the events in send order
// as NDJSON lines, and for each entity the index of its event at each
// time step.
type ingestInputs struct {
	ingestData
	lines   [][]byte
	eventAt map[string][]int
}

func newIngestInputs(data ingestData) (*ingestInputs, error) {
	in := &ingestInputs{ingestData: data, eventAt: map[string][]int{}}
	events := append(ingest.InterleaveInstances(in.pre, "pre", ingestCohort),
		ingest.InterleaveInstances(in.post, "post", ingestCohort)...)
	for i, ev := range events {
		b, err := json.Marshal(ev)
		if err != nil {
			return nil, err
		}
		in.lines = append(in.lines, append(b, '\n'))
		at := in.eventAt[ev.Entity]
		for len(at) <= ev.T {
			at = append(at, -1)
		}
		at[ev.T] = i
		in.eventAt[ev.Entity] = at
	}
	return in, nil
}

// instance maps an entity name back to the instance it streams
// ("post-7" is post.Instances[7]).
func (in *ingestInputs) instance(entity string) (ts.Instance, bool) {
	i := strings.LastIndexByte(entity, '-')
	idx, err := strconv.Atoi(entity[i+1:])
	if err != nil || i < 0 {
		return ts.Instance{}, false
	}
	d := in.pre
	if strings.HasPrefix(entity, "post-") {
		d = in.post
	}
	if idx >= d.Len() {
		return ts.Instance{}, false
	}
	return d.Instances[idx], true
}

// registry decorates the serving registry the pipeline uses: it records
// every version ever swapped in (the parity reference), and while traced
// times Pin, SwapModel and every cursor Advance.
type registry struct {
	inner  *serve.Server
	traced atomic.Bool

	mu        sync.Mutex
	byVersion map[int]core.EarlyClassifier

	pin, swap, advance latencies
}

func (r *registry) Pin(name string) (ingest.Pinned, error) {
	if !r.traced.Load() {
		return r.inner.Pin(name)
	}
	t0 := time.Now()
	p, err := r.inner.Pin(name)
	r.pin.add(time.Since(t0))
	if err == nil {
		begin := p.Begin
		p.Begin = func(in ts.Instance) core.Cursor { return &timedCursor{cur: begin(in), lat: &r.advance} }
	}
	return p, err
}

func (r *registry) SwapModel(name string, algo core.EarlyClassifier, meta persist.Meta) (int, error) {
	t0 := time.Now()
	v, err := r.inner.SwapModel(name, algo, meta)
	if r.traced.Load() {
		r.swap.add(time.Since(t0))
	}
	if err == nil {
		r.record(v, algo)
	}
	return v, err
}

// record notes which classifier serves as version v.
func (r *registry) record(v int, algo core.EarlyClassifier) {
	r.mu.Lock()
	r.byVersion[v] = algo
	r.mu.Unlock()
}

func (r *registry) versions() map[int]core.EarlyClassifier {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[int]core.EarlyClassifier, len(r.byVersion))
	for v, a := range r.byVersion {
		out[v] = a
	}
	return out
}

// timedCursor times each Advance of the cursor it wraps.
type timedCursor struct {
	cur core.Cursor
	lat *latencies
}

func (c *timedCursor) Advance(upto int) (int, int, bool) {
	t0 := time.Now()
	l, n, done := c.cur.Advance(upto)
	c.lat.add(time.Since(t0))
	return l, n, done
}

// ingestEnv is one set-up: the base model, the registry and the
// /v1/ingest endpoint on loopback.
type ingestEnv struct {
	data  ingestData
	base  core.EarlyClassifier
	meta  persist.Meta
	srv   *serve.Server
	reg   *registry
	front *loopback
	fits  latencies // retrain Fit durations

	generate, fit, load time.Duration
}

func (e *ingestEnv) close() {
	e.front.close()
	e.srv.Close()
}

func setupIngest(seed int64) (*ingestEnv, error) {
	env := &ingestEnv{}
	t0 := time.Now()
	env.data = newIngestData(seed)
	t1 := time.Now()
	env.generate = t1.Sub(t0)
	algo, err := fitECTS(env.data.train, seed)
	if err != nil {
		return nil, err
	}
	env.fit = time.Since(t1)
	env.meta = metaOf(env.data.train)
	copies, load, err := roundTrip(algo, env.meta, 1)
	if err != nil {
		return nil, err
	}
	env.base, env.load = copies[0], load
	env.srv = serve.New(serve.Config{})
	if err := env.srv.AddModel(ingestModel, env.base, env.meta); err != nil {
		env.srv.Close()
		return nil, err
	}
	env.reg = &registry{inner: env.srv, byVersion: map[int]core.EarlyClassifier{}}
	p, err := env.srv.Pin(ingestModel)
	if err != nil {
		env.srv.Close()
		return nil, err
	}
	env.reg.record(p.Version, env.base)

	drift := &ingest.DriftConfig{
		Reference: core.Categorize(env.data.train),
		Windows:   8, MinWindows: 8, Cooldown: 4, CoVJump: 0.25,
	}
	retrain := &ingest.RetrainConfig{
		MinInstances: 6, BufferSize: 8,
		Fit: func(d *ts.Dataset) (core.EarlyClassifier, error) {
			t0 := time.Now()
			a, err := fitECTS(d, seed)
			env.fits.add(time.Since(t0))
			return a, err
		},
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/ingest", ingest.Handler(func(r *http.Request, onDecision func(ingest.Decision)) (*ingest.Pipeline, error) {
		return ingest.New(ingest.Config{
			Registry: env.reg, Model: ingestModel, Shards: ingestShards,
			Drift: drift, Retrain: retrain, OnDecision: onDecision,
		})
	}))
	if env.front, err = listen(mux); err != nil {
		env.srv.Close()
		return nil, err
	}
	return env, nil
}

// arrival is one decision line and when the client read it.
type arrival struct {
	d  ingest.Decision
	at time.Time
}

// streamResult is one open-loop pass as the client saw it.
type streamResult struct {
	start     time.Time // when the first tick's events were due
	perTick   int       // events due at each tick
	lag       []time.Duration
	decisions []arrival
	summary   ingest.Summary
	end       time.Time // summary line read
}

// due is when event i was scheduled to go out: events leave in bursts
// of perTick, one burst per ingestTick.
func (r *streamResult) due(i int) time.Time {
	return r.start.Add(time.Duration(i/r.perTick) * ingestTick)
}

// stream sends lines at rate events per second through one POST and
// reads the decision lines as they arrive. Event i is due at due(i)
// whatever happened before it; lag[i] is how late it went out. The
// writer flushes whenever it is ahead of schedule, so a stalled server
// makes it batch, never drop or delay the schedule.
//
// A Go sleep here ends on a whole millisecond, so the schedule has no
// finer grain than that anyway; bursts of a few milliseconds also let
// each wake-up of the pipeline carry many events, so CPU per event
// measures the work rather than how often the scheduler woke it.
func stream(url string, lines [][]byte, rate float64) (*streamResult, error) {
	res := &streamResult{perTick: max(1, int(rate*ingestTick.Seconds())), lag: make([]time.Duration, len(lines))}
	pr, pw := io.Pipe()
	res.start = time.Now().Add(ingestTick)
	writeErr := make(chan error, 1)
	go func() {
		w := bufio.NewWriterSize(pw, 64<<10)
		var err error
		for i, line := range lines {
			due := res.due(i)
			if wait := time.Until(due); wait > 0 {
				if err = w.Flush(); err != nil {
					break
				}
				time.Sleep(wait)
			}
			res.lag[i] = time.Since(due)
			if _, err = w.Write(line); err != nil {
				break
			}
		}
		if err == nil {
			err = w.Flush()
		}
		pw.CloseWithError(err)
		writeErr <- err
	}()

	// Closing the read side unblocks a writer the server stopped reading;
	// once the summary has arrived the writer has already finished.
	waited := false
	waitWriter := func() error {
		waited = true
		pr.Close()
		return <-writeErr
	}
	defer func() {
		if !waited {
			_ = waitWriter() // the request already failed; its error is returned
		}
	}()

	req, err := http.NewRequest(http.MethodPost, url+"/v1/ingest", pr)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	hc := &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{DisableCompression: true}}
	defer hc.CloseIdleConnections()
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	gotSummary := false
	for sc.Scan() {
		at := time.Now()
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"summary":true`)) {
			if err := json.Unmarshal(line, &res.summary); err != nil {
				return nil, fmt.Errorf("summary line: %w", err)
			}
			res.end, gotSummary = at, true
			continue
		}
		var d ingest.Decision
		if err := json.Unmarshal(line, &d); err != nil {
			return nil, fmt.Errorf("decision line %q: %w", line, err)
		}
		res.decisions = append(res.decisions, arrival{d, at})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading decisions: %w", err)
	}
	if err := waitWriter(); err != nil {
		return nil, fmt.Errorf("writing events: %w", err)
	}
	if resp.StatusCode != http.StatusOK || !gotSummary {
		return nil, fmt.Errorf("ingest answered %d without a summary line", resp.StatusCode)
	}
	return res, nil
}

// checkStream counts every wrong output of one pass: decisions that
// differ from offline Classify under their pinned version, windows
// without exactly one decision, and dropped events.
func checkStream(rep *report, in *ingestInputs, res *streamResult, byVersion map[int]core.EarlyClassifier) {
	entities := in.pre.Len() + in.post.Len()
	rep.attempted += int64(len(in.lines))
	st := res.summary
	if st.Windows != int64(entities) || st.Decisions != st.Windows || len(res.decisions) != entities {
		miss := int64(entities - len(res.decisions))
		rep.fail(max(miss, 1), "%d entities, %d windows, %d decisions, %d decision lines",
			entities, st.Windows, st.Decisions, len(res.decisions))
	}
	if dropped := st.Late + st.Shed + st.Malformed + st.ParseErrors; dropped > 0 {
		rep.fail(dropped, "dropped events: %d late, %d shed, %d malformed, %d unparsable",
			st.Late, st.Shed, st.Malformed, st.ParseErrors)
	}
	if st.RetrainFailures > 0 {
		rep.fail(st.RetrainFailures, "%d retrains failed", st.RetrainFailures)
	}
	for _, a := range res.decisions {
		inst, ok := in.instance(a.d.Entity)
		if !ok {
			rep.fail(1, "decision for unknown entity %q", a.d.Entity)
			continue
		}
		if err := checkIngested(a.d, byVersion, inst); err != nil {
			rep.fail(1, "%v", err)
		}
	}
}

// decisionLatency is the time from when an entity's deciding event was
// due to when its decision line arrived.
func decisionLatency(in *ingestInputs, res *streamResult, a arrival) (time.Duration, bool) {
	at := in.eventAt[a.d.Entity]
	t := a.d.Length - 1
	if t < 0 || t >= len(at) || at[t] < 0 {
		return 0, false
	}
	return a.at.Sub(res.due(at[t])), true
}

type ingestPass struct {
	iv      interval
	events  int
	lat     []time.Duration
	lag     []time.Duration
	q       quality
	summary ingest.Summary
}

func runIngest(cfg config) (*report, error) {
	rep := newReport()
	var gens, fits, loads []time.Duration
	var env *ingestEnv
	setup, err := setupCPU(func() error {
		if env != nil {
			env.close()
		}
		var err error
		if env, err = setupIngest(cfg.seed); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		gens, fits, loads = append(gens, env.generate), append(fits, env.fit), append(loads, env.load)
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer env.close()
	in, err := newIngestInputs(env.data)
	if err != nil {
		return nil, err
	}

	all := &ts.Dataset{Instances: append(append([]ts.Instance(nil), in.pre.Instances...), in.post.Instances...)}
	_, perInstance := offline(env.base, all)

	var plain, timed []ingestPass
	start := time.Now()
	for pass := 0; ; pass++ {
		// Every pass opens on the base model, as the stream opens on the
		// regime it was trained on.
		v, err := env.srv.SwapModel(ingestModel, env.base, env.meta)
		if err != nil {
			return nil, fmt.Errorf("reset model: %w", err)
		}
		env.reg.record(v, env.base)
		on := cfg.trace && pass%2 == 1
		env.reg.traced.Store(on)
		m := startMeter()
		res, err := stream(env.front.url, in.lines, ingestRate)
		iv := m.stop()
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", pass, err)
		}
		checkStream(rep, in, res, env.reg.versions())
		p := ingestPass{iv: iv, events: len(in.lines), lag: res.lag, summary: res.summary}
		for _, a := range res.decisions {
			if d, ok := decisionLatency(in, res, a); ok {
				p.lat = append(p.lat, d)
			}
			if inst, ok := in.instance(a.d.Entity); ok {
				p.q.add(a.d.Label == inst.Label, a.d.Consumed, ingestLength)
			}
		}
		if on {
			timed = append(timed, p)
		} else {
			plain = append(plain, p)
		}
		if time.Since(start)+iv.wall > cfg.seconds && (!cfg.trace || len(timed) > 0) {
			break
		}
	}

	var cpuPerOp, opsPerS, latP50, hm, busy []float64
	for _, p := range plain {
		cpuPerOp = append(cpuPerOp, us(p.iv.cpu)/float64(p.events))
		opsPerS = append(opsPerS, float64(p.events)/p.iv.wall.Seconds())
		latP50 = append(latP50, ms(summarize(p.lat).p50))
		hm = append(hm, p.q.hm())
		busy = append(busy, p.iv.cpu.Seconds()/(p.iv.wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
	}
	rep.wall["ops_per_s"], rep.wall["decision_p50_ms"] = median(opsPerS), median(latP50)
	if !cfg.trace {
		rep.metrics["setup_s"] = setup.Seconds()
		rep.metrics["cpu_us_per_op"] = median(cpuPerOp)
		rep.metrics["hm_mean"] = median(hm)
		return rep, nil
	}

	m := rep.metrics
	m["algo.ECTS.fit_ms"] = ms(medianDuration(fits))
	m["algo.ECTS.test_us"] = us(perInstance)
	m["test_us_per_instance"] = us(perInstance)
	m["datasets.generate_ms"] = ms(medianDuration(gens))
	m["persist.load_ms"] = ms(medianDuration(loads))
	m["sched.busy_share"] = median(busy)
	m["loadgen.ops_per_s"] = median(opsPerS)
	m["ingest.decision_p50_ms"] = median(latP50)
	var timedCPU []float64
	var lat, lag []time.Duration
	var sum ingest.Stats
	for _, p := range append(plain, timed...) {
		lat = append(lat, p.lat...)
		lag = append(lag, p.lag...)
		s := p.summary.Stats
		sum.Windows += s.Windows
		sum.Decisions += s.Decisions
		sum.DriftTrips += s.DriftTrips
		sum.Retrains += s.Retrains
		sum.Swaps += s.Swaps
		sum.Late += s.Late
		sum.Shed += s.Shed
	}
	for _, p := range timed {
		timedCPU = append(timedCPU, us(p.iv.cpu)/float64(p.events))
	}
	m["trace.overhead_share"] = median(timedCPU)/median(cpuPerOp) - 1
	m["core.advance_us"] = us(env.reg.advance.summary().p50)
	m["serve.pin_us"] = us(env.reg.pin.summary().p50)
	m["serve.swap_ms"] = ms(env.reg.swap.summary().p50)
	m["ingest.retrain_fit_ms"] = ms(env.fits.summary().p50)
	m["ingest.windows"] = float64(sum.Windows)
	m["ingest.decisions"] = float64(sum.Decisions)
	m["ingest.drift_trips"] = float64(sum.DriftTrips)
	m["ingest.retrains"] = float64(sum.Retrains)
	m["ingest.swaps"] = float64(sum.Swaps)
	m["ingest.late"] = float64(sum.Late)
	m["ingest.shed"] = float64(sum.Shed)
	if sum.Windows > 0 {
		m["ingest.useful_share"] = float64(sum.Decisions) / float64(sum.Windows)
	}
	m["ingest.decision_p99_ms"] = ms(summarize(lat).tail)
	lags := summarize(lag)
	m["ingest.gen_lag_p50_ms"] = ms(lags.p50)
	m["ingest.gen_lag_max_ms"] = ms(maxDuration(lag))
	return rep, nil
}

func maxDuration(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		m = max(m, d)
	}
	return m
}
