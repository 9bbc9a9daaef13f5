// Package ingest opens the deployment workload the paper motivates ETSC
// with — maritime surveillance, where tens of thousands of vessels emit
// one unbounded interleaved event stream — on top of the repo's bounded
// batch machinery. A Pipeline demultiplexes entity-keyed events into
// per-entity tumbling windows with strictly bounded per-entity memory,
// classifies each window through the incremental Cursor contract (so a
// streamed decision is bit-identical to an offline Classify of the same
// window), monitors distribution drift on a rolling profile of completed
// windows, and on a drift trip retrains a fresh model on the recent
// labeled windows and hot-swaps it into the serving registry. Windows in
// flight keep the version they pinned; windows opened after the swap
// pick up the refreshed model.
//
// Backpressure is structural: Submit blocks on the owning shard's
// bounded queue, so a producer reading events off a network body slows
// to the pipeline's pace instead of growing an unbounded buffer.
package ingest

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/goetsc/goetsc/internal/core"
	"github.com/goetsc/goetsc/internal/evict"
	"github.com/goetsc/goetsc/internal/obs"
	"github.com/goetsc/goetsc/internal/persist"
	ts "github.com/goetsc/goetsc/internal/timeseries"
)

// Event is one entity-keyed stream point: one reading per variable for
// one entity at per-entity time index T. T must increase within an
// entity; an event at or before the entity's last accepted T is dropped
// as late/duplicate. Labeled events carry delayed ground truth for the
// entity's current window — the feed the retrainer learns from.
type Event struct {
	Entity  string    `json:"entity"`
	T       int       `json:"t"`
	Values  []float64 `json:"values"`
	Label   int       `json:"label,omitempty"`
	Labeled bool      `json:"labeled,omitempty"`
}

// Decision is one classified window: the early label, how much of the
// window the classifier consumed, and the model version that decided —
// the version the window pinned when it opened, which a concurrent hot
// swap never moves.
type Decision struct {
	Entity   string `json:"entity"`
	Window   int    `json:"window"`
	Label    int    `json:"label"`
	Consumed int    `json:"consumed"`
	Length   int    `json:"length"`
	Model    string `json:"model"`
	Version  int    `json:"version"`
}

// Pinned is one resolved model version: enough metadata to shape a
// window plus a Begin that builds a cursor already carrying whatever
// serialization the version's classifier needs (native cursors advance
// lock-free; fallback cursors arrive wrapped in the model's mutex).
type Pinned struct {
	Name       string
	Version    int
	Length     int
	NumVars    int
	NumClasses int
	Begin      func(in ts.Instance) core.Cursor
}

// Registry is the slice of the serving layer the pipeline needs:
// resolve the live version of a model, and swap a freshly retrained one
// in. *serve.Server implements it.
type Registry interface {
	Pin(name string) (Pinned, error)
	SwapModel(name string, algo core.EarlyClassifier, meta persist.Meta) (version int, err error)
}

// Config controls one Pipeline.
type Config struct {
	// Registry resolves and swaps model versions. Required.
	Registry Registry
	// Model is the registry name new windows pin. Required.
	Model string
	// Shards is the demux width: entities hash to a shard, each shard is
	// one goroutine with a bounded queue. 1 processes the stream in
	// arrival order — the deterministic setting tests use. Default
	// min(4, GOMAXPROCS) via New.
	Shards int
	// QueueDepth bounds each shard's queue; a full queue blocks Submit
	// (backpressure). Default 256.
	QueueDepth int
	// WindowLength is the tumbling-window size in points. 0 uses the
	// pinned model's training length.
	WindowLength int
	// MaxEntities bounds live entities across all shards; events for new
	// entities beyond it are shed (counted, journaled once). Default
	// 16384.
	MaxEntities int
	// EntityTTL is the idle eviction horizon EvictIdle sweeps with. The
	// pipeline runs EvictIdle itself every EntityTTL/2 until Close.
	// Default 10 minutes.
	EntityTTL time.Duration
	// Clock feeds entity last-seen stamps and the eviction sweep; nil
	// means time.Now. Shared with the serve layer's session TTL policy so
	// one fake clock drives both deterministically.
	Clock evict.Clock
	// Drift configures the rolling-profile drift detector; nil disables
	// detection (windows still feed the rolling profile).
	Drift *DriftConfig
	// Retrain configures background retraining on drift trips; nil
	// disables it (trips are still journaled).
	Retrain *RetrainConfig
	// OnDecision, when set, receives every decision from the deciding
	// shard's goroutine. Shards=1 makes the callback sequence
	// deterministic.
	OnDecision func(Decision)
	// Obs receives journal events and counters; nil is a no-op.
	Obs *obs.Collector
}

func (c Config) withDefaults() (Config, error) {
	if c.Registry == nil || c.Model == "" {
		return c, errors.New("ingest: Registry and Model are required")
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxEntities <= 0 {
		c.MaxEntities = 16384
	}
	if c.EntityTTL <= 0 {
		c.EntityTTL = 10 * time.Minute
	}
	return c, nil
}

// Stats is a snapshot of the pipeline's counters.
type Stats struct {
	Events          int64 `json:"events"`
	Late            int64 `json:"late"`      // dropped: at or before the entity's last T
	Malformed       int64 `json:"malformed"` // dropped: wrong variable count
	Shed            int64 `json:"shed"`      // dropped: entity cap reached
	EntitiesCreated int64 `json:"entities_created"`
	EntitiesEvicted int64 `json:"entities_evicted"`
	EntitiesLive    int64 `json:"entities_live"`
	Windows         int64 `json:"windows"`
	Decisions       int64 `json:"decisions"`
	DriftTrips      int64 `json:"drift_trips"`
	Retrains        int64 `json:"retrains"`
	RetrainFailures int64 `json:"retrain_failures"`
	Swaps           int64 `json:"swaps"`
}

type counters struct {
	events, late, malformed, shed       atomic.Int64
	created, evicted, live              atomic.Int64
	windows, decisions                  atomic.Int64
	trips, retrains, retrainFail, swaps atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Events: c.events.Load(), Late: c.late.Load(), Malformed: c.malformed.Load(),
		Shed: c.shed.Load(), EntitiesCreated: c.created.Load(),
		EntitiesEvicted: c.evicted.Load(), EntitiesLive: c.live.Load(),
		Windows: c.windows.Load(), Decisions: c.decisions.Load(),
		DriftTrips: c.trips.Load(), Retrains: c.retrains.Load(),
		RetrainFailures: c.retrainFail.Load(), Swaps: c.swaps.Load(),
	}
}

// entity is one live stream key's window state. All fields are owned by
// the entity's shard goroutine — no locking.
type entity struct {
	key      string
	window   int         // completed-window ordinal, 0-based
	pin      Pinned      // the version this window runs on
	values   [][]float64 // [variable][time]; inner slices reset, outer reused
	cur      core.Cursor
	decided  bool
	lastT    int
	started  bool // true once the first event of the current window landed
	lastSeen time.Time

	// Rolling-window accumulators, reset per window: one-pass sums that
	// reproduce stats.MeanStd exactly for this window's values.
	sum, sumsq float64
	count      int

	// Delayed ground truth for the current window (last labeled event
	// wins), feeding the retrain buffer at window completion.
	labeled   bool
	trueLabel int
}

// shardMsg carries either one event or a control barrier through a
// shard's queue, so controls are ordered with the data they follow.
type shardMsg struct {
	ev   Event
	ctl  func(*shard) // non-nil: control message
	done *sync.WaitGroup
}

type shard struct {
	p        *Pipeline
	queue    chan shardMsg
	entities map[string]*entity
}

// Pipeline is the continuous-ingest engine. Create with New, feed with
// Submit, stop with Close.
type Pipeline struct {
	cfg    Config
	shards []*shard
	wg     sync.WaitGroup
	closed atomic.Bool
	stats  counters

	shedOnce sync.Once // journal the entity cap once, not per event

	// The idle sweep: stopSweep ends it, swept closes once it has ended.
	stopSweep chan struct{}
	swept     chan struct{}

	// Drift plane: central, touched once per completed window.
	driftMu    sync.Mutex
	profile    *RollingProfile
	detector   *Detector
	buffer     *labeledBuffer
	retraining atomic.Bool
	retrainWG  sync.WaitGroup
}

// New starts a pipeline: one goroutine per shard, queues bounded at
// QueueDepth.
func New(cfg Config) (*Pipeline, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	// Resolve the model once up front so a typo fails at construction,
	// not on the first event.
	pin, err := cfg.Registry.Pin(cfg.Model)
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	if cfg.WindowLength <= 0 {
		cfg.WindowLength = pin.Length
	}
	if cfg.WindowLength <= 0 {
		return nil, fmt.Errorf("ingest: model %q has no training length; set WindowLength", cfg.Model)
	}
	p := &Pipeline{cfg: cfg, profile: NewRollingProfile(cfg.Model, profileWindows(cfg.Drift))}
	if cfg.Drift != nil {
		d, err := NewDetector(*cfg.Drift)
		if err != nil {
			return nil, err
		}
		p.detector = d
	}
	if cfg.Retrain != nil {
		if err := cfg.Retrain.validate(); err != nil {
			return nil, err
		}
		p.buffer = newLabeledBuffer(cfg.Retrain.BufferSize)
	}
	p.shards = make([]*shard, cfg.Shards)
	for i := range p.shards {
		sh := &shard{p: p, queue: make(chan shardMsg, cfg.QueueDepth), entities: map[string]*entity{}}
		p.shards[i] = sh
		p.wg.Add(1)
		go sh.run()
	}
	p.stopSweep, p.swept = make(chan struct{}), make(chan struct{})
	go p.sweepIdle(cfg.EntityTTL / 2)
	return p, nil
}

// sweepIdle runs EvictIdle every interval until Close, so entities that
// went quiet free their slots under MaxEntities. The interval is floored
// at a millisecond so a tiny TTL cannot spin the shards on sweeps.
func (p *Pipeline) sweepIdle(every time.Duration) {
	defer close(p.swept)
	ticker := time.NewTicker(max(every, time.Millisecond))
	defer ticker.Stop()
	for {
		select {
		case <-p.stopSweep:
			return
		case <-ticker.C:
			p.EvictIdle()
		}
	}
}

// profileWindows sizes the rolling profile: the detector's window count
// when drift detection is on, a stats-only default otherwise.
func profileWindows(d *DriftConfig) int {
	if d != nil && d.Windows > 0 {
		return d.Windows
	}
	return 64
}

// Submit hands one event to its entity's shard, blocking while the
// shard's queue is full — the pipeline's backpressure. It fails only on
// a closed pipeline.
func (p *Pipeline) Submit(ev Event) error {
	if p.closed.Load() {
		return errors.New("ingest: pipeline closed")
	}
	p.shards[shardOf(ev.Entity, len(p.shards))].queue <- shardMsg{ev: ev}
	return nil
}

// shardOf hashes an entity key to its owning shard — FNV-1a, the same
// stable keyed hashing the fault plane uses, so an entity's events stay
// ordered on one queue at any shard count.
func shardOf(key string, n int) int {
	if n == 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

// Flush blocks until every event submitted before the call has been
// processed, including any synchronous retrain those events triggered.
func (p *Pipeline) Flush() {
	p.barrier(func(*shard) {})
	p.retrainWG.Wait()
}

// EvictIdle sweeps every shard for entities idle past the TTL, using
// the same clock-injectable policy the serve layer's session sweep
// uses, and returns how many were dropped. The sweep rides the shard
// queues, so it is ordered with the events around it. The pipeline
// calls it on its own timer; a caller may also sweep on demand.
func (p *Pipeline) EvictIdle() int {
	pol := evict.Policy{TTL: p.cfg.EntityTTL, Clock: p.cfg.Clock}
	cutoff := pol.Cutoff()
	var evicted atomic.Int64
	p.barrier(func(sh *shard) {
		for key, e := range sh.entities {
			if evict.ExpiredAt(e.lastSeen, cutoff) {
				delete(sh.entities, key)
				evicted.Add(1)
			}
		}
	})
	n := evicted.Load()
	if n > 0 {
		p.stats.evicted.Add(n)
		p.stats.live.Add(-n)
		p.cfg.Obs.Emit("ingest_entities_evicted", map[string]any{
			"model": p.cfg.Model, "evicted": n,
		})
	}
	return int(n)
}

// barrier runs fn on every shard's goroutine and waits for all of them.
func (p *Pipeline) barrier(fn func(*shard)) {
	var wg sync.WaitGroup
	for _, sh := range p.shards {
		wg.Add(1)
		sh.queue <- shardMsg{ctl: fn, done: &wg}
	}
	wg.Wait()
}

// Close stops the idle sweep, drains the queues, stops the shards and
// waits for any in-flight retrain. Submit fails afterwards; Close is
// idempotent.
func (p *Pipeline) Close() {
	if !p.closed.CompareAndSwap(false, true) {
		return
	}
	close(p.stopSweep)
	<-p.swept
	for _, sh := range p.shards {
		close(sh.queue)
	}
	p.wg.Wait()
	p.retrainWG.Wait()
}

// Stats snapshots the pipeline counters.
func (p *Pipeline) Stats() Stats { return p.stats.snapshot() }

func (sh *shard) run() {
	defer sh.p.wg.Done()
	for msg := range sh.queue {
		if msg.ctl != nil {
			msg.ctl(sh)
			msg.done.Done()
			continue
		}
		sh.handle(msg.ev)
	}
}

// handle is the per-event hot path: route to the entity, reject
// late/malformed input, append, advance the cursor, and roll the window
// when it fills.
func (sh *shard) handle(ev Event) {
	p := sh.p
	p.stats.events.Add(1)
	e, ok := sh.entities[ev.Entity]
	if !ok {
		if p.stats.live.Load() >= int64(p.cfg.MaxEntities) {
			p.stats.shed.Add(1)
			p.shedOnce.Do(func() {
				p.cfg.Obs.Emit("ingest_entities_shed", map[string]any{
					"model": p.cfg.Model, "max_entities": p.cfg.MaxEntities,
				})
			})
			return
		}
		pin, err := p.cfg.Registry.Pin(p.cfg.Model)
		if err != nil {
			p.stats.malformed.Add(1)
			return
		}
		e = &entity{key: ev.Entity, pin: pin, lastT: -1}
		sh.entities[ev.Entity] = e
		p.stats.created.Add(1)
		p.stats.live.Add(1)
	}
	e.lastSeen = evict.Clock(p.cfg.Clock).Now()
	if ev.T <= e.lastT && e.started {
		// Late or duplicate: the entity already accepted this instant.
		p.stats.late.Add(1)
		return
	}
	nvars := e.pin.NumVars
	if nvars <= 0 {
		nvars = len(ev.Values)
	}
	if len(ev.Values) != nvars {
		// A malformed event does not consume its instant: a well-formed
		// retransmission of the same T is still accepted.
		p.stats.malformed.Add(1)
		return
	}
	e.lastT = ev.T
	if e.values == nil || len(e.values) != nvars {
		// First window, or a swap changed the variable count: fresh outer
		// slice, inner capacity fixed at the window length so the window
		// never reallocates mid-stream.
		e.values = make([][]float64, nvars)
		for i := range e.values {
			e.values[i] = make([]float64, 0, p.cfg.WindowLength)
		}
	}
	for i, v := range ev.Values {
		e.values[i] = append(e.values[i], v)
		e.sum += v
		e.sumsq += v * v
		e.count++
	}
	if ev.Labeled {
		e.labeled, e.trueLabel = true, ev.Label
	}
	n := len(e.values[0])
	if !e.started {
		// The cursor contract allows appends to the inner slices but not
		// a reallocation of the outer one — exactly how this buffer grows.
		e.cur = e.pin.Begin(ts.Instance{Values: e.values})
		e.started = true
	}
	if !e.decided {
		label, consumed, done := e.cur.Advance(n)
		// Final only when more data cannot change it: the cursor froze
		// the decision, the classifier committed strictly inside the
		// received prefix, or the window is full — the serving layer's
		// finality rule.
		if done || consumed < n || n >= p.cfg.WindowLength {
			e.decided = true
			if consumed > n {
				consumed = n
			}
			p.stats.decisions.Add(1)
			if p.cfg.OnDecision != nil {
				p.cfg.OnDecision(Decision{
					Entity: e.key, Window: e.window, Label: label, Consumed: consumed,
					Length: n, Model: e.pin.Name, Version: e.pin.Version,
				})
			}
		}
	}
	if n >= p.cfg.WindowLength {
		sh.completeWindow(e)
	}
}

// completeWindow closes the entity's full window: feed the drift plane,
// then reset the entity for the next window on the current live model
// version — this re-pin is where a hot swap reaches new windows.
func (sh *shard) completeWindow(e *entity) {
	p := sh.p
	p.stats.windows.Add(1)
	ws := WindowStats{
		Sum: e.sum, SumSq: e.sumsq, Count: e.count,
		Length: len(e.values[0]), NumVars: len(e.values),
		Label: e.trueLabel, Labeled: e.labeled,
	}
	var inst ts.Instance
	if e.labeled && p.buffer != nil {
		inst = copyInstance(e.values, e.trueLabel)
	}
	p.observeWindow(ws, inst)

	if pin, err := p.cfg.Registry.Pin(p.cfg.Model); err == nil {
		e.pin = pin
	}
	e.window++
	e.decided, e.started, e.labeled = false, false, false
	e.cur = nil
	e.sum, e.sumsq, e.count = 0, 0, 0
	for i := range e.values {
		e.values[i] = e.values[i][:0]
	}
}

// copyInstance snapshots a window into an owned instance for the
// retrain buffer — the entity's buffers are about to be reused.
func copyInstance(values [][]float64, label int) ts.Instance {
	cp := make([][]float64, len(values))
	for i, row := range values {
		cp[i] = append(make([]float64, 0, len(row)), row...)
	}
	return ts.Instance{Values: cp, Label: label}
}

// observeWindow feeds one completed window to the rolling profile and
// the drift detector, and kicks the retrainer on a trip.
func (p *Pipeline) observeWindow(ws WindowStats, labeled ts.Instance) {
	p.driftMu.Lock()
	p.profile.Add(ws)
	if ws.Labeled && p.buffer != nil {
		p.buffer.add(labeled)
	}
	trip := false
	why := ""
	if p.detector != nil {
		trip, why = p.detector.Observe(p.profile.Profile())
	}
	p.driftMu.Unlock()
	if !trip {
		return
	}
	p.stats.trips.Add(1)
	p.cfg.Obs.Emit("drift_detected", map[string]any{
		"model": p.cfg.Model, "reason": why,
	})
	p.maybeRetrain(why)
}
