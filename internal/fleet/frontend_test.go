package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// frontAnswer is what a client can observe of an error answer, minus
// the trace header (the router and a replica each echo their own span).
type frontAnswer struct {
	Status      int
	Kind        string
	Error       string
	ContentType string
	RetryAfter  string
	Connection  string
}

func frontDo(t *testing.T, h http.Handler, method, path, body string) frontAnswer {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var eb struct {
		Error string `json:"error"`
		Kind  string `json:"kind"`
	}
	json.Unmarshal(rec.Body.Bytes(), &eb)
	return frontAnswer{
		Status: rec.Code, Kind: eb.Kind, Error: eb.Error,
		ContentType: rec.Header().Get("Content-Type"),
		RetryAfter:  rec.Header().Get("Retry-After"),
		Connection:  rec.Header().Get("Connection"),
	}
}

// oversizedValues is a classify or points body larger than the default
// 1 MiB body cap of both the router and a replica.
func oversizedValues() string {
	return `{"model":"ects","values":[[` + strings.Repeat("0,", 700_000) + `0]]}`
}

// TestFleetFrontEndMatchesReplica: the router answers every rejected
// request exactly as one replica would — same status, kind, error text
// and headers — because it runs the replica's request front end.
func TestFleetFrontEndMatchesReplica(t *testing.T) {
	createS1 := func(t *testing.T, h http.Handler) {
		if a := frontDo(t, h, http.MethodPost, "/v1/sessions", `{"model":"ects","session_id":"s1"}`); a.Status != http.StatusCreated {
			t.Fatalf("setup create answered %+v", a)
		}
	}
	cases := []struct {
		name         string
		setup        func(t *testing.T, h http.Handler, drain func())
		method, path string
		body         string
		wantStatus   int
	}{
		{name: "create trailing data", method: http.MethodPost, path: "/v1/sessions",
			body: `{"model":"ects"} x`, wantStatus: http.StatusBadRequest},
		{name: "create unknown field", method: http.MethodPost, path: "/v1/sessions",
			body: `{"model":"ects","zz":1}`, wantStatus: http.StatusBadRequest},
		{name: "oversized classify", method: http.MethodPost, path: "/v1/classify",
			body: oversizedValues(), wantStatus: http.StatusRequestEntityTooLarge},
		{name: "classify while draining", method: http.MethodPost, path: "/v1/classify",
			setup: func(_ *testing.T, _ http.Handler, drain func()) { drain() },
			body:  `{"model":"ects","values":[[0.5,0.5,0.5]]}`, wantStatus: http.StatusServiceUnavailable},
		{name: "oversized points", method: http.MethodPost, path: "/v1/sessions/s1/points",
			setup: func(t *testing.T, h http.Handler, _ func()) { createS1(t, h) },
			body:  oversizedValues(), wantStatus: http.StatusRequestEntityTooLarge},
		{name: "unknown model", method: http.MethodPost, path: "/v1/classify",
			body: `{"model":"nope","values":[[0.5,0.5,0.5]]}`, wantStatus: http.StatusNotFound},
		{name: "duplicate session_id", method: http.MethodPost, path: "/v1/sessions",
			setup: func(t *testing.T, h http.Handler, _ func()) { createS1(t, h) },
			body:  `{"model":"ects","session_id":"s1"}`, wantStatus: http.StatusConflict},
		{name: "duplicate session_id unknown model", method: http.MethodPost, path: "/v1/sessions",
			setup: func(t *testing.T, h http.Handler, _ func()) { createS1(t, h) },
			body:  `{"model":"nope","session_id":"s1"}`, wantStatus: http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt, _, _, _ := newFleet(t, 2, Config{})
			srv := newReplicaServer(t, nil)
			fleetH, replicaH := rt.Handler(), srv.Handler()
			if tc.setup != nil {
				tc.setup(t, fleetH, func() { rt.Drain(context.Background()) })
				tc.setup(t, replicaH, func() { srv.Drain(context.Background()) })
			}
			want := frontDo(t, replicaH, tc.method, tc.path, tc.body)
			got := frontDo(t, fleetH, tc.method, tc.path, tc.body)
			if want.Status != tc.wantStatus {
				t.Fatalf("replica answered %+v, want status %d", want, tc.wantStatus)
			}
			if got != want {
				t.Errorf("router answered\n  %+v\nreplica answered\n  %+v", got, want)
			}
		})
	}
}

// TestDuplicateCreateRebuildsLostSession: a create naming a pinned
// session whose owner has lost it answers 409, and the owner holds the
// session again, with every logged point, once the answer is out.
func TestDuplicateCreateRebuildsLostSession(t *testing.T) {
	rt, _, servers, _ := newFleet(t, 2, Config{})
	fleetH := rt.Handler()
	do := func(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	if rec := do(fleetH, http.MethodPost, "/v1/sessions", `{"model":"ects","session_id":"s1"}`); rec.Code != http.StatusCreated {
		t.Fatalf("create = %d: %s", rec.Code, rec.Body)
	}
	if rec := do(fleetH, http.MethodPost, "/v1/sessions/s1/points", `{"values":[[0.5,0.52]]}`); rec.Code != http.StatusOK {
		t.Fatalf("points = %d: %s", rec.Code, rec.Body)
	}
	owner := servers[0].Handler()
	if rt.owner("s1").id == "r1" {
		owner = servers[1].Handler()
	}
	before := do(owner, http.MethodGet, "/v1/sessions/s1", "").Body.String()
	if rec := do(owner, http.MethodDelete, "/v1/sessions/s1", ""); rec.Code != http.StatusNoContent {
		t.Fatalf("replica delete = %d: %s", rec.Code, rec.Body)
	}
	if a := frontDo(t, fleetH, http.MethodPost, "/v1/sessions", `{"model":"ects","session_id":"s1"}`); a.Status != http.StatusConflict || a.Kind != "session_exists" {
		t.Fatalf("duplicate create answered %+v, want 409 session_exists", a)
	}
	if after := do(owner, http.MethodGet, "/v1/sessions/s1", "").Body.String(); after != before {
		t.Fatalf("owner's session after the duplicate create:\n %s\nbefore it was lost:\n %s", after, before)
	}
}
