package serve

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/goetsc/goetsc/internal/core"
	"github.com/goetsc/goetsc/internal/evict"
	ts "github.com/goetsc/goetsc/internal/timeseries"
)

// session accumulates one streamed time series behind a live
// classification cursor: per-instance scan state (running distances,
// checkpoint verdicts, streak machines) persists here between batches,
// so each batch costs only the new points instead of a full reclassify
// of the prefix. Once the decision is final it is frozen so late points
// cannot change a reported answer.
type session struct {
	id    string
	entry *modelEntry // registry slot: breaker + version history
	model *model      // the version pinned at creation; hot swaps never move it

	mu        sync.Mutex
	values    [][]float64 // [variable][time], grows as points arrive
	cur       core.Cursor // created on the first batch, never serialized
	curNative bool        // native cursors advance without the model lock
	decided   bool
	label     int
	consumed  int
	lastSeen  time.Time
}

// sessionState is the JSON view of a session's progress.
type sessionState struct {
	SessionID string `json:"session_id"`
	Model     string `json:"model"`
	Status    string `json:"status"` // "pending" or "decided"
	Length    int    `json:"length"`
	Label     *int   `json:"label,omitempty"`
	Consumed  *int   `json:"consumed,omitempty"`
}

func (ss *session) state() sessionState {
	st := sessionState{SessionID: ss.id, Model: ss.model.info.Name, Status: "pending"}
	if len(ss.values) > 0 {
		st.Length = len(ss.values[0])
	}
	if ss.decided {
		st.Status = "decided"
		label, consumed := ss.label, ss.consumed
		st.Label, st.Consumed = &label, &consumed
	}
	return st
}

// writeState renders state() by hand from the model's response arena —
// byte-identical to WriteJSON of state(), without the encoder or the
// pointer boxing. Callers hold ss.mu (or exclusively own the session).
func (ss *session) writeState(w http.ResponseWriter, status int) error {
	n := 0
	if len(ss.values) > 0 {
		n = len(ss.values[0])
	}
	rb := ss.model.getBuf()
	rb.b = renderState(rb.b[:0], ss.id, ss.model.info.Name, ss.decided, n, ss.label, ss.consumed)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, err := w.Write(rb.b)
	ss.model.bufs.Put(rb)
	return err
}

// NewSessionID returns a 16-byte random hex token — the identifier
// minted for create requests that don't name one. It is exported so the
// fleet router can mint IDs before placement: the rendezvous hash of the
// ID decides the owning replica, so the ID must exist first.
func NewSessionID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("serve: session id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

type sessionCreateRequest struct {
	Model string `json:"model"`
	// SessionID optionally names the session instead of letting the
	// server mint one. The fleet router supplies it so session placement
	// is derivable from the ID alone; direct clients normally omit it.
	SessionID string `json:"session_id,omitempty"`
}

// validateSessionID bounds client-supplied session names: short, and
// drawn from the same alphabet minted IDs use (plus '-' and '_') so they
// embed cleanly in paths, journals and metrics labels.
func validateSessionID(id string) error {
	if len(id) > 64 {
		return errf(http.StatusBadRequest, "session_id longer than 64 bytes")
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return errf(http.StatusBadRequest, "session_id may hold only letters, digits, '-' and '_'")
		}
	}
	return nil
}

// DecodeSessionCreate reads a session-create body (strictly, like every
// request body) into the model name and the optional client-chosen
// session ID. The fleet router decodes the body with it before placing
// the session.
func DecodeSessionCreate(r *http.Request) (model, sessionID string, err error) {
	var req sessionCreateRequest
	err = decodeJSON(r, &req)
	return req.Model, req.SessionID, err
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) error {
	model, id, err := DecodeSessionCreate(r)
	if err != nil {
		return err
	}
	e, ok := s.entry(model)
	if !ok {
		return errf(http.StatusNotFound, "unknown model %q", model)
	}
	if id == "" {
		if id, err = NewSessionID(); err != nil {
			return err
		}
	} else if err := validateSessionID(id); err != nil {
		return err
	}
	// The session pins the version live at creation: every Advance for
	// its lifetime runs against this *model, so a hot swap mid-stream
	// cannot change a decision already in progress.
	m := e.cur.Load()
	ss := &session{id: id, entry: e, model: m, lastSeen: s.now()}

	s.mu.Lock()
	if _, exists := s.sessions[id]; exists {
		s.mu.Unlock()
		return errk(http.StatusConflict, "session_exists", "session %q already exists", id)
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		return errf(http.StatusServiceUnavailable, "session limit reached (%d live sessions)", s.cfg.MaxSessions)
	}
	s.sessions[id] = ss
	s.mu.Unlock()

	ri := info(r)
	ri.model, ri.session = m.info.Name, id
	s.stats.lifecycle(m.info.Name, evCreated)
	s.cfg.Obs.Emit("session_created", map[string]any{"session": id, "model": m.info.Name})
	return ss.writeState(w, http.StatusCreated)
}

func (s *Server) session(id string) (*session, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ss, ok := s.sessions[id]
	return ss, ok
}

// pointsRequest appends measurements to a streamed series. Values is
// indexed [variable][new time points]; every variable must contribute the
// same number of points. Last marks the series complete, forcing a
// decision on whatever has arrived.
type pointsRequest struct {
	Values [][]float64 `json:"values"`
	Last   bool        `json:"last,omitempty"`
}

func (s *Server) handleSessionPoints(w http.ResponseWriter, r *http.Request) error {
	ss, ok := s.session(r.PathValue("id"))
	if !ok {
		return errf(http.StatusNotFound, "unknown session %q", r.PathValue("id"))
	}
	var req pointsRequest
	if err := decodeJSON(r, &req); err != nil {
		return err
	}
	if len(req.Values) == 0 && !req.Last {
		return errf(http.StatusBadRequest, "values must hold at least one variable (or set last)")
	}

	ri := info(r)
	ri.model, ri.session = ss.model.info.Name, ss.id

	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.lastSeen = s.now()
	if ss.decided {
		// The decision is frozen: report it, ignore the extra points.
		// No quality telemetry — nothing was classified.
		ri.label, ri.decided = ss.label, true
		return ss.writeState(w, http.StatusOK)
	}
	if len(req.Values) > 0 {
		if err := appendPoints(&ss.values, req.Values, ss.model.info.NumVars, ss.model.info.Length); err != nil {
			return err
		}
	}
	n := 0
	if len(ss.values) > 0 {
		n = len(ss.values[0])
	}
	if n == 0 {
		return errf(http.StatusBadRequest, "cannot decide an empty series")
	}
	ri.prefix = n

	if err := s.breakerAllow(ss.entry); err != nil {
		return err
	}
	if ss.cur == nil {
		// The cursor aliases the session's value slices: appendPoints
		// only ever appends to the inner slices after the first batch
		// fixed the outer one, which is exactly the growth contract
		// cursors require.
		ss.cur, ss.curNative = core.NewCursor(ss.model.algo, tsInstance(ss.values))
	}
	t0 := time.Now()
	if err := s.acquire(r); err != nil {
		// Shed in the queue, not a model failure: no breaker record.
		return err
	}
	ri.queue = time.Since(t0)
	t1 := time.Now()
	var label, consumed int
	var curDone bool
	cerr := s.runClassify(ss.model.info.Name, func() error {
		if ss.curNative {
			// Native cursors read only shared fitted state; sessions of
			// one model advance concurrently.
			label, consumed, curDone = ss.cur.Advance(n)
		} else {
			// Fallback cursors replay Classify, which may reuse model
			// scratch — same serialization the classic path needed. The
			// deferred unlock keeps the lock safe across a panicking
			// classifier.
			ss.model.mu.Lock()
			defer ss.model.mu.Unlock()
			label, consumed, curDone = ss.cur.Advance(n)
		}
		return nil
	})
	ri.classify = time.Since(t1)
	ri.worked = true
	s.release()
	ss.entry.breaker.record(cerr == nil)
	if cerr != nil {
		return cerr
	}

	// The decision is final only when it cannot change with more data:
	// the cursor froze it (the classifier committed), the classifier
	// committed strictly inside the received prefix, the series reached
	// the model's training length, or the client declared it complete.
	// Otherwise the answer is "pending" — exactly the online semantics
	// the framework's earliness metric measures.
	final := curDone || consumed < n || req.Last || (ss.model.info.Length > 0 && n >= ss.model.info.Length)
	ms := ss.model.stats
	ms.recordBatch(!final)
	s.stats.lifecycle(ss.model.info.Name, evAdvanced)
	if final {
		ss.decided = true
		ss.label = label
		if consumed > n {
			consumed = n
		}
		ss.consumed = consumed
		ri.label, ri.decided = label, true
		ms.recordDecision(consumed, ss.model.info.Length, n)
		s.stats.lifecycle(ss.model.info.Name, evDecided)
		s.cfg.Obs.Emit("session_decided", map[string]any{
			"session": ss.id, "model": ss.model.info.Name,
			"label": label, "consumed": consumed, "length": n,
		})
	} else {
		ri.pending = true
	}
	return ss.writeState(w, http.StatusOK)
}

// appendPoints grows dst by the batch in src, validating shape. dst may
// be empty (the first batch fixes the variable count, and sizes each
// inner slice at the model's training length so a full-length stream
// never reallocates mid-session).
func appendPoints(dst *[][]float64, src [][]float64, wantVars, lengthHint int) error {
	batch := len(src[0])
	for i, v := range src {
		if len(v) != batch {
			return errf(http.StatusBadRequest, "variable %d has %d new points, variable 0 has %d", i, len(v), batch)
		}
	}
	if batch == 0 {
		return errf(http.StatusBadRequest, "values must hold at least one time point")
	}
	if wantVars > 0 && len(src) != wantVars {
		return errf(http.StatusBadRequest, "model expects %d variables, got %d", wantVars, len(src))
	}
	if len(*dst) == 0 {
		*dst = make([][]float64, len(src))
		if lengthHint > 0 {
			for i := range *dst {
				(*dst)[i] = make([]float64, 0, lengthHint)
			}
		}
	} else if len(src) != len(*dst) {
		return errf(http.StatusBadRequest, "session has %d variables, batch has %d", len(*dst), len(src))
	}
	for i := range src {
		(*dst)[i] = append((*dst)[i], src[i]...)
	}
	return nil
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) error {
	ss, ok := s.session(r.PathValue("id"))
	if !ok {
		return errf(http.StatusNotFound, "unknown session %q", r.PathValue("id"))
	}
	ri := info(r)
	ri.model, ri.session = ss.model.info.Name, ss.id
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.decided {
		ri.label, ri.decided = ss.label, true
	}
	return ss.writeState(w, http.StatusOK)
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	s.mu.Lock()
	ss, ok := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if !ok {
		return errf(http.StatusNotFound, "unknown session %q", id)
	}
	ri := info(r)
	ri.model, ri.session = ss.model.info.Name, id
	s.stats.lifecycle(ss.model.info.Name, evClosed)
	s.cfg.Obs.Emit("session_closed", map[string]any{"session": id})
	w.WriteHeader(http.StatusNoContent)
	return nil
}

// EvictIdleSessions drops sessions idle longer than the TTL and returns
// how many were removed. The command binary runs it on a ticker; the
// shared evict.Policy (same helper the ingest subsystem's entity sweep
// uses) resolves the cutoff against the injectable clock.
func (s *Server) EvictIdleSessions() int {
	cutoff := evict.Policy{TTL: s.cfg.SessionTTL, Clock: s.cfg.Clock}.Cutoff()
	s.mu.Lock()
	var evicted []*session
	for id, ss := range s.sessions {
		ss.mu.Lock()
		idle := ss.lastSeen.Before(cutoff)
		ss.mu.Unlock()
		if idle {
			delete(s.sessions, id)
			evicted = append(evicted, ss)
		}
	}
	notify := s.onSessionEvict
	s.mu.Unlock()
	for _, ss := range evicted {
		s.stats.lifecycle(ss.model.info.Name, evEvicted)
		if notify != nil {
			notify(ss.id)
		}
	}
	return len(evicted)
}

// tsInstance adapts the JSON [variable][time] matrix to a classifier
// input. Labels are irrelevant at inference time.
func tsInstance(values [][]float64) ts.Instance {
	return ts.Instance{Values: values}
}
