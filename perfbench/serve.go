package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/goetsc/goetsc/internal/core"
	"github.com/goetsc/goetsc/internal/fleet"
	"github.com/goetsc/goetsc/internal/serve"
	ts "github.com/goetsc/goetsc/internal/timeseries"
)

// The serve workload is the etsc-serve -fleet 2 shape: a fleet.Router
// over two in-process serve.Server replicas, on a loopback listener,
// serving an ECTS model. ECTS advances a cursor in a few microseconds,
// so the handler, router and cursor layers dominate what is measured.
const (
	serveHeight  = 400 // instances, half of them held out for the clients
	serveLength  = 128
	serveClasses = 4
	serveModel   = "ects"
	oneShotShare = 0.2 // share of conversations that are one-shot classifies
	chunkPoints  = 8   // points per session request
	convsPerPass = 400 // conversations per connection per pass
)

// conversation is one client interaction with a test instance: a
// one-shot classify, or a session (create, chunks until decided, close).
type conversation struct {
	inst    int
	oneShot bool
}

// serveInputs is everything generated from the seed: the held-out
// instances, their pre-encoded request bodies, and each connection's
// fixed conversation list.
type serveInputs struct {
	test     *ts.Dataset
	classify [][]byte   // one-shot body per instance
	chunks   [][][]byte // session chunk bodies per instance
	lists    [][]conversation
}

// serveEnv is one set-up: the trained model and the running fleet.
type serveEnv struct {
	algo     core.EarlyClassifier // the fitted original: the parity reference
	replicas []*serve.Server
	front    *loopback
	timing   *routeTimer // nil unless traced
	test     *ts.Dataset

	generate, fit, load time.Duration
}

func (e *serveEnv) close() {
	e.front.close()
	e.closeReplicas()
}

// setupServe generates the data, fits ECTS, round-trips it through the
// persist envelope once per replica, and starts the replicas and the
// router on loopback.
func setupServe(seed int64, traced bool) (*serveEnv, error) {
	env := &serveEnv{}
	t0 := time.Now()
	d := serveData(seed)
	trainIdx, testIdx, err := ts.StratifiedSplit(d, 0.5, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	train, test := d.Subset(trainIdx), d.Subset(testIdx)
	env.test = test
	t1 := time.Now()
	env.generate = t1.Sub(t0)
	if env.algo, err = fitECTS(train, seed); err != nil {
		return nil, err
	}
	env.fit = time.Since(t1)
	meta := metaOf(train)
	copies, load, err := roundTrip(env.algo, meta, 2)
	if err != nil {
		return nil, err
	}
	env.load = load
	rt := fleet.New(fleet.Config{})
	for i, m := range copies {
		srv := serve.New(serve.Config{})
		env.replicas = append(env.replicas, srv)
		if err := srv.AddModel(serveModel, m, meta); err != nil {
			env.closeReplicas()
			return nil, err
		}
		rt.Add(fleet.NewLocal(fmt.Sprintf("r%d", i), srv))
	}
	var h http.Handler = rt.Handler()
	if traced {
		env.timing = newRouteTimer(h)
		h = env.timing
	}
	if env.front, err = listen(h); err != nil {
		env.closeReplicas()
		return nil, err
	}
	return env, nil
}

// serveData is unit noise in every class until the series midpoint,
// after which class c adds a level of 3c. ECTS then commits after about
// half the series on every seed, so a session streams about eight
// chunks before its decision and the request mix barely moves between
// seeds.
func serveData(seed int64) *ts.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &ts.Dataset{Name: "stream"}
	for i := 0; i < serveHeight; i++ {
		class := i % serveClasses
		row := make([]float64, serveLength)
		for t := range row {
			row[t] = rng.NormFloat64()
			if t >= serveLength/2 {
				row[t] += 3 * float64(class)
			}
		}
		d.Instances = append(d.Instances, ts.Instance{Label: class, Values: [][]float64{row}})
	}
	return d
}

func (e *serveEnv) closeReplicas() {
	for _, s := range e.replicas {
		s.Close()
	}
}

// newServeInputs pre-encodes every request body, so the client's own
// cost per request stays small and identical between commits.
func newServeInputs(test *ts.Dataset, seed int64, conns int) *serveInputs {
	in := &serveInputs{test: test}
	for _, inst := range test.Instances {
		b := append([]byte(`{"model":"`+serveModel+`","values":`), appendValues(nil, inst.Values)...)
		in.classify = append(in.classify, append(b, '}'))
		var chunks [][]byte
		for lo := 0; lo < inst.Length(); lo += chunkPoints {
			hi := min(lo+chunkPoints, inst.Length())
			rows := make([][]float64, len(inst.Values))
			for v := range rows {
				rows[v] = inst.Values[v][lo:hi]
			}
			b := append([]byte(`{"values":`), appendValues(nil, rows)...)
			chunks = append(chunks, append(b, '}'))
		}
		in.chunks = append(in.chunks, chunks)
	}
	for c := 0; c < conns; c++ {
		rng := rand.New(rand.NewSource(seed*1000 + int64(c)))
		list := make([]conversation, convsPerPass)
		for i := range list {
			list[i] = conversation{inst: rng.Intn(test.Len()), oneShot: rng.Float64() < oneShotShare}
		}
		in.lists = append(in.lists, list)
	}
	return in
}

// offline computes the parity reference for every test instance and
// the offline Classify time per instance of the served model (its Fig.
// 13 numerator): the median over repeated sweeps, at least 9 and at
// least 200 ms of them, after one warm-up sweep.
func offline(algo core.EarlyClassifier, test *ts.Dataset) ([]decision, time.Duration) {
	ref := make([]decision, test.Len())
	var sweeps []time.Duration
	for i, inst := range test.Instances {
		l, c := algo.Classify(inst)
		ref[i] = decision{l, c}
	}
	for start := time.Now(); len(sweeps) < 9 || time.Since(start) < 200*time.Millisecond; {
		t0 := time.Now()
		for i, inst := range test.Instances {
			l, c := algo.Classify(inst)
			ref[i] = decision{l, c}
		}
		sweeps = append(sweeps, time.Since(t0)/time.Duration(test.Len()))
	}
	return ref, medianDuration(sweeps)
}

// passStats is what the clients saw in one pass.
type passStats struct {
	iv       interval
	requests int64
	byRoute  map[string][]time.Duration
	decide   []time.Duration // every response carrying a decision
	q        quality
}

// client is one connection's worth of load.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

func (c *client) do(method, path string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	t0 := time.Now()
	res, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(res.Body)
	res.Body.Close()
	return res.StatusCode, c.buf.Bytes(), time.Since(t0), err
}

// answer is the part of a classify or session response parity needs.
type answer struct {
	Label    *int `json:"label"`
	Consumed *int `json:"consumed"`
}

// converse runs one connection's conversation list once and returns its
// client-side view. ref is the offline parity reference per instance.
func converse(c *client, in *serveInputs, list []conversation, ref []decision, tag string, rep *report, mu *sync.Mutex) passStats {
	st := passStats{byRoute: map[string][]time.Duration{}}
	bad := func(format string, args ...any) {
		mu.Lock()
		rep.fail(1, format, args...)
		mu.Unlock()
	}
	call := func(route, method, path string, body []byte, want int) ([]byte, time.Duration, bool) {
		st.requests++
		status, resp, d, err := c.do(method, path, body)
		if err != nil || status != want {
			bad("%s %s: status %d, err %v: %s", method, path, status, err, strings.TrimSpace(string(resp)))
			return nil, 0, false
		}
		st.byRoute[route] = append(st.byRoute[route], d)
		return resp, d, true
	}
	decided := func(conv conversation, resp []byte, d time.Duration) {
		var a answer
		if err := json.Unmarshal(resp, &a); err != nil || a.Label == nil || a.Consumed == nil {
			bad("instance %d: undecodable decision %q", conv.inst, resp)
			return
		}
		st.decide = append(st.decide, d)
		got := decision{*a.Label, *a.Consumed}
		if err := checkServed(got, ref[conv.inst]); err != nil {
			bad("instance %d: %v", conv.inst, err)
		}
		inst := in.test.Instances[conv.inst]
		st.q.add(got.label == inst.Label, got.consumed, inst.Length())
	}
	for i, conv := range list {
		if conv.oneShot {
			if resp, d, ok := call("classify", http.MethodPost, "/v1/classify", in.classify[conv.inst], http.StatusOK); ok {
				decided(conv, resp, d)
			}
			continue
		}
		id := fmt.Sprintf("%s-%d", tag, i)
		if _, _, ok := call("session_create", http.MethodPost, "/v1/sessions",
			[]byte(`{"model":"`+serveModel+`","session_id":"`+id+`"}`), http.StatusCreated); !ok {
			continue
		}
		final := false
		for _, chunk := range in.chunks[conv.inst] {
			resp, d, ok := call("session_points", http.MethodPost, "/v1/sessions/"+id+"/points", chunk, http.StatusOK)
			if !ok {
				break
			}
			if bytes.Contains(resp, []byte(`"status":"decided"`)) {
				decided(conv, resp, d)
				final = true
				break
			}
		}
		if !final {
			bad("session %s on instance %d never decided", id, conv.inst)
		}
		call("session_close", http.MethodDelete, "/v1/sessions/"+id, nil, http.StatusNoContent)
	}
	return st
}

// loadPass drives every connection through its list once, concurrently.
func loadPass(clients []*client, in *serveInputs, ref []decision, pass int, rep *report) passStats {
	var mu sync.Mutex
	out := make([]passStats, len(clients))
	var wg sync.WaitGroup
	m := startMeter()
	for w, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[w] = converse(c, in, in.lists[w], ref, fmt.Sprintf("p%d-c%d", pass, w), rep, &mu)
		}()
	}
	wg.Wait()
	total := passStats{iv: m.stop(), byRoute: map[string][]time.Duration{}}
	for _, s := range out {
		total.requests += s.requests
		for r, d := range s.byRoute {
			total.byRoute[r] = append(total.byRoute[r], d...)
		}
		total.decide = append(total.decide, s.decide...)
		total.q.n += s.q.n
		total.q.correct += s.q.correct
		total.q.earliness += s.q.earliness
	}
	rep.attempted += total.requests
	return total
}

func runServe(cfg config) (*report, error) {
	rep := newReport()
	var env *serveEnv
	var gens, fits, loads []time.Duration
	setup, err := setupCPU(func() error {
		if env != nil {
			env.close()
		}
		var err error
		if env, err = setupServe(cfg.seed, cfg.trace); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		gens, fits, loads = append(gens, env.generate), append(fits, env.fit), append(loads, env.load)
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer env.close()

	conns := runtime.NumCPU()
	in := newServeInputs(env.test, cfg.seed, conns)
	ref, perInstance := offline(env.algo, env.test)
	clients := make([]*client, conns)
	for i := range clients {
		clients[i] = newClient(env.front.url)
	}
	defer func() {
		for _, c := range clients {
			c.hc.CloseIdleConnections()
		}
	}()

	// Untraced: every pass measures the fleet as shipped. Traced: passes
	// alternate with the router timing on and off, for the overhead, in
	// the first part of the run; a control pass against one bare
	// replica and a direct cursor drive fill the rest.
	fleetBudget := cfg.seconds
	if cfg.trace {
		fleetBudget = cfg.seconds * 6 / 10
	}
	var plain, timed []passStats
	start := time.Now()
	for pass := 0; ; pass++ {
		on := cfg.trace && pass%2 == 1
		if env.timing != nil {
			env.timing.on.Store(on)
		}
		st := loadPass(clients, in, ref, pass, rep)
		if on {
			timed = append(timed, st)
		} else {
			plain = append(plain, st)
		}
		if time.Since(start)+st.iv.wall > fleetBudget && (!cfg.trace || len(timed) > 0) {
			break
		}
	}

	var cpuPerOp, opsPerS, latP50, busy []float64
	var q quality
	for _, st := range plain {
		cpuPerOp = append(cpuPerOp, us(st.iv.cpu)/float64(st.requests))
		opsPerS = append(opsPerS, float64(st.requests)/st.iv.wall.Seconds())
		latP50 = append(latP50, ms(summarize(st.decide).p50))
		busy = append(busy, st.iv.cpu.Seconds()/(st.iv.wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
		q.n, q.correct, q.earliness = q.n+st.q.n, q.correct+st.q.correct, q.earliness+st.q.earliness
	}
	rep.wall["ops_per_s"], rep.wall["decision_p50_ms"] = median(opsPerS), median(latP50)
	if !cfg.trace {
		rep.metrics["setup_s"] = setup.Seconds()
		rep.metrics["cpu_us_per_op"] = median(cpuPerOp)
		rep.metrics["hm_mean"] = q.hm()
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
	m["loadgen.decision_p50_ms"] = median(latP50)
	var timedCPU []float64
	for _, st := range timed {
		timedCPU = append(timedCPU, us(st.iv.cpu)/float64(st.requests))
	}
	m["trace.overhead_share"] = median(timedCPU)/median(cpuPerOp) - 1

	// Client and router views come from the same (timed) requests.
	client := map[string][]time.Duration{}
	for _, st := range timed {
		for r, d := range st.byRoute {
			client[r] = append(client[r], d...)
		}
	}
	control, err := controlPass(env, in, ref, cfg, start, rep)
	if err != nil {
		return nil, err
	}
	for _, r := range routes {
		c := summarize(client[r])
		f := env.timing.summary(r)
		s := control[r]
		m["loadgen."+r+"_p50_ms"] = ms(c.p50)
		m["loadgen."+r+"_p99_ms"] = ms(c.tail)
		m["loadgen."+r+"_samples"] = float64(c.n)
		m["fleet."+r+"_p50_ms"] = ms(f.p50)
		m["serve."+r+"_p50_ms"] = ms(s.p50)
		m["fleet."+r+"_hop_p50_ms"] = ms(f.p50 - s.p50)
		m["net."+r+"_gap_p50_ms"] = ms(c.p50 - f.p50)
	}
	m["core.advance_us"] = us(driveCursors(env.algo, in))
	return rep, nil
}

// controlPass sends the same conversations straight to one bare
// serve.Server handler (no router) with the same timing wrapper, until
// the run's time is up, and returns that handler's per-route latency.
func controlPass(env *serveEnv, in *serveInputs, ref []decision, cfg config, start time.Time, rep *report) (map[string]summary, error) {
	copies, _, err := roundTrip(env.algo, metaOf(env.test), 1)
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{})
	defer srv.Close()
	if err := srv.AddModel(serveModel, copies[0], metaOf(env.test)); err != nil {
		return nil, err
	}
	timer := newRouteTimer(srv.Handler())
	timer.on.Store(true)
	lb, err := listen(timer)
	if err != nil {
		return nil, err
	}
	defer lb.close()
	clients := make([]*client, len(in.lists))
	for i := range clients {
		clients[i] = newClient(lb.url)
		defer clients[i].hc.CloseIdleConnections()
	}
	budget := cfg.seconds * 9 / 10
	for pass := 0; ; pass++ {
		st := loadPass(clients, in, ref, 1000+pass, rep)
		if time.Since(start)+st.iv.wall > budget {
			break
		}
	}
	out := map[string]summary{}
	for _, r := range routes {
		out[r] = timer.summary(r)
	}
	return out, nil
}

// driveCursors replays connection 0's sessions directly on the cursor
// layer (core.NewCursor, then Advance per chunk, with the serving
// layer's finality rule) and returns the median time of one Advance.
func driveCursors(algo core.EarlyClassifier, in *serveInputs) time.Duration {
	var lat []time.Duration
	for _, conv := range in.lists[0] {
		if conv.oneShot {
			continue
		}
		src := in.test.Instances[conv.inst]
		values := make([][]float64, len(src.Values))
		for v := range values {
			values[v] = make([]float64, 0, src.Length())
		}
		cur, _ := core.NewCursor(algo, ts.Instance{Values: values})
		for n := chunkPoints; ; n += chunkPoints {
			n = min(n, src.Length())
			for v := range values {
				values[v] = append(values[v], src.Values[v][len(values[v]):n]...)
			}
			t0 := time.Now()
			_, consumed, done := cur.Advance(n)
			lat = append(lat, time.Since(t0))
			if done || consumed < n || n >= src.Length() {
				break
			}
		}
	}
	return summarize(lat).p50
}

// routeTimer wraps a handler and, while on, records how long it takes
// to serve each API route.
type routeTimer struct {
	next http.Handler
	on   atomic.Bool
	lat  map[string]*latencies
}

func newRouteTimer(next http.Handler) *routeTimer {
	t := &routeTimer{next: next, lat: map[string]*latencies{}}
	for _, r := range routes {
		t.lat[r] = &latencies{}
	}
	return t
}

// routeOf names a request by the route table the serve and fleet
// handlers share.
func routeOf(r *http.Request) string {
	switch {
	case r.URL.Path == "/v1/classify":
		return "classify"
	case r.URL.Path == "/v1/sessions":
		return "session_create"
	case strings.HasSuffix(r.URL.Path, "/points"):
		return "session_points"
	case r.Method == http.MethodDelete:
		return "session_close"
	}
	return ""
}

func (t *routeTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.on.Load() {
		t.next.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	t.next.ServeHTTP(w, r)
	if l := t.lat[routeOf(r)]; l != nil {
		l.add(time.Since(t0))
	}
}

func (t *routeTimer) summary(route string) summary { return t.lat[route].summary() }
