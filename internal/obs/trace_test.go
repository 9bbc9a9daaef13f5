package obs_test

import (
	"context"
	"net/http/httptest"
	"testing"

	"github.com/goetsc/goetsc/internal/obs"
)

func TestTraceHeaderRoundTrip(t *testing.T) {
	tc := obs.NewTraceContext()
	if !tc.Valid() {
		t.Fatalf("new trace context invalid: %+v", tc)
	}
	got, ok := obs.ParseTraceHeader(tc.Header())
	if !ok || got != tc {
		t.Fatalf("ParseTraceHeader(%q) = %+v, %v; want %+v", tc.Header(), got, ok, tc)
	}
	if len(tc.Header()) != 49 {
		t.Fatalf("header %q has length %d, want 49", tc.Header(), len(tc.Header()))
	}
}

func TestParseTraceHeaderRejectsMalformed(t *testing.T) {
	valid := obs.NewTraceContext().Header()
	cases := []string{
		"",
		"abc",
		valid[:48],  // truncated
		valid + "0", // too long
		valid[:32] + "_" + valid[33:],
		"zz" + valid[2:], // bad hex in trace
		valid[:33] + "zzzzzzzzzzzzzzzz",
		"00000000000000000000000000000000-" + valid[33:], // zero trace
		valid[:33] + "0000000000000000",                  // zero span
	}
	for _, c := range cases {
		if _, ok := obs.ParseTraceHeader(c); ok {
			t.Errorf("ParseTraceHeader(%q) accepted, want reject", c)
		}
	}
}

func TestChildKeepsTraceMintsSpan(t *testing.T) {
	tc := obs.NewTraceContext()
	child := tc.Child()
	if child.Trace != tc.Trace {
		t.Fatalf("child trace %s != parent trace %s", child.Trace, tc.Trace)
	}
	if child.Span == tc.Span || child.Span.IsZero() {
		t.Fatalf("child span %s should be fresh (parent %s)", child.Span, tc.Span)
	}
}

func TestTraceIDsUnique(t *testing.T) {
	seen := map[obs.TraceID]bool{}
	for i := 0; i < 1000; i++ {
		id := obs.NewTraceID()
		if seen[id] {
			t.Fatalf("duplicate trace ID %s after %d draws", id, i)
		}
		seen[id] = true
	}
}

func TestTraceFromRequest(t *testing.T) {
	r := httptest.NewRequest("GET", "/v1/models", nil)
	minted, adopted := obs.TraceFromRequest(r)
	if adopted || !minted.Valid() {
		t.Fatalf("untraced request: got adopted=%v tc=%+v, want fresh valid trace", adopted, minted)
	}

	want := obs.NewTraceContext()
	r.Header.Set(obs.TraceHeader, want.Header())
	got, adopted := obs.TraceFromRequest(r)
	if !adopted || got != want {
		t.Fatalf("traced request: got %+v adopted=%v, want %+v adopted", got, adopted, want)
	}

	r.Header.Set(obs.TraceHeader, "not-a-trace")
	got, adopted = obs.TraceFromRequest(r)
	if adopted || !got.Valid() {
		t.Fatalf("garbage header: got adopted=%v tc=%+v, want fresh valid trace", adopted, got)
	}
}

func TestTraceContextPropagation(t *testing.T) {
	if tc := obs.TraceFrom(context.Background()); tc.Valid() {
		t.Fatalf("empty context carries trace %+v", tc)
	}
	want := obs.NewTraceContext()
	ctx := obs.WithTrace(context.Background(), want)
	if got := obs.TraceFrom(ctx); got != want {
		t.Fatalf("TraceFrom = %+v, want %+v", got, want)
	}
}
