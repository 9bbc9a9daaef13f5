package ingest

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/goetsc/goetsc/internal/core"
	"github.com/goetsc/goetsc/internal/persist"
	"github.com/goetsc/goetsc/internal/testenv"
	ts "github.com/goetsc/goetsc/internal/timeseries"
)

// fakeCursor decides at a fixed prefix length with a fixed label — the
// label is the model version that built it, so a decision's Label field
// directly witnesses which version the window ran on.
type fakeCursor struct {
	decideAt int
	label    int
}

func (c *fakeCursor) Advance(upto int) (label, consumed int, done bool) {
	if upto >= c.decideAt {
		return c.label, c.decideAt, true
	}
	return -1, upto, false
}

// fakeRegistry is an in-memory Registry whose cursors label every
// window with the version that pinned them.
type fakeRegistry struct {
	mu       sync.Mutex
	version  int
	length   int
	nvars    int
	decideAt int
	swapErr  error
	swaps    int
}

func newFakeRegistry(length, nvars, decideAt int) *fakeRegistry {
	return &fakeRegistry{version: 1, length: length, nvars: nvars, decideAt: decideAt}
}

func (r *fakeRegistry) Pin(name string) (Pinned, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.version
	at := r.decideAt
	return Pinned{
		Name: name, Version: v, Length: r.length, NumVars: r.nvars, NumClasses: 2,
		Begin: func(in ts.Instance) core.Cursor { return &fakeCursor{decideAt: at, label: v} },
	}, nil
}

func (r *fakeRegistry) SwapModel(name string, algo core.EarlyClassifier, meta persist.Meta) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.swapErr != nil {
		return 0, r.swapErr
	}
	r.version++
	r.swaps++
	return r.version, nil
}

// collect gathers decisions in arrival order (Shards=1 makes the order
// deterministic).
type collect struct {
	mu sync.Mutex
	ds []Decision
}

func (c *collect) add(d Decision) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ds = append(c.ds, d)
}

func (c *collect) all() []Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Decision(nil), c.ds...)
}

func point(entity string, t int, v float64) Event {
	return Event{Entity: entity, T: t, Values: []float64{v}}
}

func TestIngestWindowRollAndDecisions(t *testing.T) {
	reg := newFakeRegistry(4, 1, 2)
	var got collect
	p, err := New(Config{Registry: reg, Model: "m", Shards: 1, OnDecision: got.add})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Two full windows for one entity: the decision fires at the cursor's
	// decideAt prefix, the window rolls at WindowLength, and the second
	// window starts counting its ordinal and time from its own first event.
	for i := 0; i < 8; i++ {
		if err := p.Submit(point("a", i, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	p.Flush()
	st := p.Stats()
	if st.Events != 8 || st.Windows != 2 || st.Decisions != 2 {
		t.Fatalf("stats = %+v, want 8 events, 2 windows, 2 decisions", st)
	}
	ds := got.all()
	if len(ds) != 2 {
		t.Fatalf("got %d decisions, want 2", len(ds))
	}
	for i, d := range ds {
		want := Decision{Entity: "a", Window: i, Label: 1, Consumed: 2, Length: 2, Model: "m", Version: 1}
		if d != want {
			t.Errorf("decision[%d] = %+v, want %+v", i, d, want)
		}
	}
}

func TestIngestLateDuplicateMalformedCounters(t *testing.T) {
	reg := newFakeRegistry(4, 1, 4)
	p, err := New(Config{Registry: reg, Model: "m", Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	must := func(ev Event) {
		t.Helper()
		if err := p.Submit(ev); err != nil {
			t.Fatal(err)
		}
	}
	must(point("a", 0, 1))
	must(point("a", 1, 2))
	must(point("a", 1, 2))                                  // duplicate: same T again
	must(point("a", 0, 9))                                  // late: T went backwards
	must(Event{Entity: "a", T: 2, Values: []float64{1, 2}}) // malformed: two vars on a 1-var model
	must(point("a", 2, 3))
	p.Flush()
	st := p.Stats()
	if st.Events != 6 {
		t.Errorf("events = %d, want 6", st.Events)
	}
	if st.Late != 2 {
		t.Errorf("late = %d, want 2 (one duplicate + one backwards)", st.Late)
	}
	if st.Malformed != 1 {
		t.Errorf("malformed = %d, want 1", st.Malformed)
	}
}

func TestIngestShedAtMaxEntities(t *testing.T) {
	reg := newFakeRegistry(4, 1, 4)
	p, err := New(Config{Registry: reg, Model: "m", Shards: 1, MaxEntities: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, entity := range []string{"a", "b", "c", "c"} {
		if err := p.Submit(point(entity, 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	p.Flush()
	st := p.Stats()
	if st.EntitiesCreated != 2 || st.EntitiesLive != 2 {
		t.Errorf("created/live = %d/%d, want 2/2", st.EntitiesCreated, st.EntitiesLive)
	}
	if st.Shed != 2 {
		t.Errorf("shed = %d, want 2 (both events of the third entity)", st.Shed)
	}
}

// fakeClock is a mutable evict.Clock shared across the test.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func TestIngestEvictionByInjectedClock(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	reg := newFakeRegistry(4, 1, 4)
	p, err := New(Config{
		Registry: reg, Model: "m", Shards: 2,
		EntityTTL: time.Minute, Clock: clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Submit(point("a", 0, 1))
	p.Submit(point("b", 0, 1))
	p.Flush()
	clk.advance(30 * time.Second)
	p.Submit(point("b", 1, 2)) // refresh b's lastSeen
	p.Flush()
	if n := p.EvictIdle(); n != 0 {
		t.Fatalf("evicted %d before TTL, want 0", n)
	}
	clk.advance(45 * time.Second) // a idle 75s > TTL, b idle 45s < TTL
	if n := p.EvictIdle(); n != 1 {
		t.Fatalf("evicted %d, want exactly the idle entity", n)
	}
	st := p.Stats()
	if st.EntitiesEvicted != 1 || st.EntitiesLive != 1 {
		t.Errorf("evicted/live = %d/%d, want 1/1", st.EntitiesEvicted, st.EntitiesLive)
	}
	// The evicted entity restarts from a fresh window on its next event.
	p.Submit(point("a", 0, 1))
	p.Flush()
	if st := p.Stats(); st.EntitiesCreated != 3 || st.EntitiesLive != 2 {
		t.Errorf("created/live after return = %d/%d, want 3/2", st.EntitiesCreated, st.EntitiesLive)
	}
}

// TestIngestSweepsIdleEntitiesItself: with no caller sweeping, an entity
// idle past EntityTTL is evicted on the pipeline's own timer, so a new
// entity gets its slot under MaxEntities instead of being shed.
func TestIngestSweepsIdleEntitiesItself(t *testing.T) {
	reg := newFakeRegistry(4, 1, 4)
	p, err := New(Config{
		Registry: reg, Model: "m", Shards: 1,
		MaxEntities: 1, EntityTTL: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Submit(point("a", 0, 1))
	p.Flush()
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().EntitiesEvicted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle entity not evicted 5s past a 20ms TTL")
		}
		time.Sleep(5 * time.Millisecond)
	}
	p.Submit(point("b", 0, 1))
	p.Flush()
	if st := p.Stats(); st.Shed != 0 || st.EntitiesCreated != 2 || st.EntitiesLive != 1 {
		t.Errorf("shed/created/live = %d/%d/%d, want 0/2/1", st.Shed, st.EntitiesCreated, st.EntitiesLive)
	}
}

func TestIngestPinsVersionAcrossSwap(t *testing.T) {
	reg := newFakeRegistry(4, 1, 4) // decide only on the full window
	var got collect
	p, err := New(Config{Registry: reg, Model: "m", Shards: 1, OnDecision: got.add})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Open the window on v1, swap mid-window, finish the window: the
	// decision must still be v1's. The next window re-pins and sees v2.
	p.Submit(point("a", 0, 1))
	p.Submit(point("a", 1, 2))
	p.Flush()
	if _, err := reg.SwapModel("m", nil, persist.Meta{}); err != nil {
		t.Fatal(err)
	}
	for i := 2; i < 8; i++ {
		p.Submit(point("a", i, float64(i)))
	}
	p.Flush()
	ds := got.all()
	if len(ds) != 2 {
		t.Fatalf("got %d decisions, want 2", len(ds))
	}
	if ds[0].Version != 1 || ds[0].Label != 1 {
		t.Errorf("pre-swap window decided by version %d label %d, want pinned v1", ds[0].Version, ds[0].Label)
	}
	if ds[1].Version != 2 || ds[1].Label != 2 {
		t.Errorf("post-swap window decided by version %d label %d, want v2", ds[1].Version, ds[1].Label)
	}
}

func TestIngestBackpressureBlocksSubmit(t *testing.T) {
	reg := newFakeRegistry(4, 1, 4)
	p, err := New(Config{Registry: reg, Model: "m", Shards: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Park the shard goroutine on a control message, fill the queue, and
	// check the next Submit blocks until the shard is released.
	hold := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	p.shards[0].queue <- shardMsg{ctl: func(*shard) { <-hold }, done: &wg}
	p.Submit(point("a", 0, 1)) // fills the depth-1 queue

	unblocked := make(chan struct{})
	go func() {
		p.Submit(point("a", 1, 2))
		close(unblocked)
	}()
	select {
	case <-unblocked:
		t.Fatal("Submit returned while the shard queue was full — no backpressure")
	case <-time.After(50 * time.Millisecond):
	}
	close(hold)
	select {
	case <-unblocked:
	case <-time.After(2 * time.Second):
		t.Fatal("Submit never unblocked after the shard drained")
	}
	wg.Wait()
}

func TestIngestHandlerStreamsDecisionsAndSummary(t *testing.T) {
	reg := newFakeRegistry(3, 1, 2)
	h := Handler(func(r *http.Request, onDecision func(Decision)) (*Pipeline, error) {
		return New(Config{Registry: reg, Model: "m", Shards: 1, OnDecision: onDecision})
	})
	hs := httptest.NewServer(h)
	defer hs.Close()

	var body strings.Builder
	for i := 0; i < 3; i++ {
		fmt.Fprintf(&body, `{"entity":"a","t":%d,"values":[%d]}`+"\n", i, i)
	}
	body.WriteString("this is not json\n")
	for i := 0; i < 3; i++ {
		fmt.Fprintf(&body, `{"entity":"b","t":%d,"values":[%d]}`+"\n", i, i)
	}
	resp, err := http.Post(hs.URL, "application/x-ndjson", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var decisions []Decision
	var summary *Summary
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var probe struct {
			Summary bool `json:"summary"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad response line %q: %v", sc.Text(), err)
		}
		if probe.Summary {
			summary = &Summary{}
			if err := json.Unmarshal(sc.Bytes(), summary); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var d Decision
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatal(err)
		}
		decisions = append(decisions, d)
	}
	if len(decisions) != 2 {
		t.Fatalf("got %d decision lines, want one per entity window", len(decisions))
	}
	if summary == nil {
		t.Fatal("no trailing summary line")
	}
	if summary.ParseErrors != 1 {
		t.Errorf("parse_errors = %d, want 1", summary.ParseErrors)
	}
	if summary.Events != 6 || summary.Windows != 2 || summary.Decisions != 2 {
		t.Errorf("summary stats = %+v, want 6 events / 2 windows / 2 decisions", summary.Stats)
	}

	// Non-POST is rejected.
	get, err := http.Get(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", get.StatusCode)
	}
}

// TestIngestBoundedMemoryManyEntities is the per-entity memory gate: at
// 10k live entities, steady-state windowing must reuse the per-entity
// buffers — heap growth from one full round of windows to the next must
// be a small fraction of the footprint of the first round.
func TestIngestBoundedMemoryManyEntities(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("memory gate is meaningless under -race instrumentation")
	}
	if testing.Short() {
		t.Skip("10k-entity sweep in -short mode")
	}
	const entities = 10_000
	const window = 16
	reg := newFakeRegistry(window, 1, window)
	p, err := New(Config{Registry: reg, Model: "m", Shards: 4, MaxEntities: entities})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	round := func(base int) {
		for tt := 0; tt < window; tt++ {
			for e := 0; e < entities; e++ {
				p.Submit(Event{Entity: "e" + itoa(e), T: base + tt, Values: []float64{float64(tt)}})
			}
		}
		p.Flush()
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	before := heap()
	round(0) // allocates every entity's window buffers once
	afterFirst := heap()
	round(window) // steady state: same entities, buffers reused
	afterSecond := heap()

	st := p.Stats()
	if st.EntitiesLive != entities || st.Windows != 2*entities {
		t.Fatalf("live=%d windows=%d, want %d live and %d windows", st.EntitiesLive, st.Windows, entities, 2*entities)
	}
	firstRound := int64(afterFirst) - int64(before)
	secondRound := int64(afterSecond) - int64(afterFirst)
	if firstRound <= 0 {
		t.Skipf("first round measured %d bytes — GC noise swamped the gate", firstRound)
	}
	if secondRound > firstRound/4 {
		t.Errorf("steady-state round grew the heap %d bytes vs %d for the first round — per-entity buffers are not being reused", secondRound, firstRound)
	}
}

// itoa avoids fmt in the 160k-submit hot loop of the memory gate.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
