package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"github.com/goetsc/goetsc/internal/persist"
	"github.com/goetsc/goetsc/internal/testenv"
)

// encode is the reference renderer: exactly what writeJSON produced
// before the hand-rendered hot path.
func encode(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

func TestRenderClassifyMatchesEncoder(t *testing.T) {
	cases := []struct {
		model, algorithm string
		label, consumed  int
	}{
		{"ects", "ECTS", 1, 17},
		{"m", "S-MINI", -1, 0},
		{"dataset-POWER_cons.v2", "ECDIRE", 100, 2048},
		{`we"ird\name`, "A<B>&C", 0, 3}, // forces the escape fallback
		{"naïve-été", "\t", 2, 5},       // non-ASCII and control chars
	}
	for _, c := range cases {
		got := renderClassify(nil, c.model, c.algorithm, c.label, c.consumed)
		want := encode(t, map[string]any{
			"model": c.model, "algorithm": c.algorithm,
			"label": c.label, "consumed": c.consumed, "final": true,
		})
		if !bytes.Equal(got, want) {
			t.Errorf("renderClassify(%q, %q, %d, %d)\n got %q\nwant %q",
				c.model, c.algorithm, c.label, c.consumed, got, want)
		}
	}
}

func TestRenderStateMatchesEncoder(t *testing.T) {
	cases := []struct {
		id, model       string
		decided         bool
		length          int
		label, consumed int
	}{
		{"a1b2c3", "ects", false, 0, 0, 0},
		{"a1b2c3", "ects", false, 12, 0, 0},
		{"ffee00112233", "s-mini", true, 24, 3, 17},
		{"id", `q"u<o>t&e`, true, 1, 0, 1}, // escape fallback
	}
	for _, c := range cases {
		st := sessionState{SessionID: c.id, Model: c.model, Status: "pending", Length: c.length}
		if c.decided {
			st.Status = "decided"
			label, consumed := c.label, c.consumed
			st.Label, st.Consumed = &label, &consumed
		}
		got := renderState(nil, c.id, c.model, c.decided, c.length, c.label, c.consumed)
		want := encode(t, st)
		if !bytes.Equal(got, want) {
			t.Errorf("renderState(%+v)\n got %q\nwant %q", c, got, want)
		}
	}
}

// TestClassifyHotPathZeroAlloc gates the post-decode region of POST
// /v1/classify — classify, record the decision, render and write the
// response from the model's arena — at zero allocations per request.
// The handler adds only HTTP header writes and route instrumentation
// around this region.
func TestClassifyHotPathZeroAlloc(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation gates are meaningless under -race")
	}
	algo, d := fixture(t)
	s := New(Config{})
	meta := persist.Meta{Dataset: d.Name, Length: d.MaxLength(), NumVars: d.NumVars(), NumClasses: d.NumClasses()}
	if err := s.AddModel("ects", algo, meta); err != nil {
		t.Fatalf("add model: %v", err)
	}
	m, _ := s.lookup("ects")
	values := [][]float64{d.Instances[0].Values[0]}

	hot := func() {
		label, consumed := m.classify(values)
		m.stats.recordDecision(consumed, m.info.Length, len(values[0]))
		rb := m.getBuf()
		rb.b = renderClassify(rb.b[:0], m.info.Name, m.info.Algorithm, label, consumed)
		if _, err := io.Discard.Write(rb.b); err != nil {
			t.Fatal(err)
		}
		m.bufs.Put(rb)
	}
	hot() // warm the pools
	if allocs := testing.AllocsPerRun(200, hot); allocs != 0 {
		t.Fatalf("classify hot path allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestSessionStateRenderZeroAlloc gates the session response render: a
// poll of a live session must not allocate.
func TestSessionStateRenderZeroAlloc(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation gates are meaningless under -race")
	}
	algo, d := fixture(t)
	s := New(Config{})
	meta := persist.Meta{Dataset: d.Name, Length: d.MaxLength(), NumVars: d.NumVars(), NumClasses: d.NumClasses()}
	if err := s.AddModel("ects", algo, meta); err != nil {
		t.Fatalf("add model: %v", err)
	}
	m, _ := s.lookup("ects")
	ss := &session{id: "0123456789abcdef0123456789abcdef", model: m,
		values: [][]float64{d.Instances[0].Values[0]}, decided: true, label: 1, consumed: 9}
	render := func() {
		rb := m.getBuf()
		rb.b = renderState(rb.b[:0], ss.id, m.info.Name, ss.decided, len(ss.values[0]), ss.label, ss.consumed)
		if _, err := io.Discard.Write(rb.b); err != nil {
			t.Fatal(err)
		}
		m.bufs.Put(rb)
	}
	render()
	if allocs := testing.AllocsPerRun(200, render); allocs != 0 {
		t.Fatalf("session state render allocates %.1f allocs/op, want 0", allocs)
	}
}
