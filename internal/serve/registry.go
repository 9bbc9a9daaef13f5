package serve

import (
	"errors"
	"io/fs"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/goetsc/goetsc/internal/core"
	"github.com/goetsc/goetsc/internal/persist"
)

// The model registry gives every served model a version history: the
// live version sits behind an atomic pointer the request plane loads
// lock-free, and the control plane (reload/rollback) swaps it
// copy-on-write. In-flight requests and live streaming sessions hold the
// *model they resolved and keep it until they finish, so a hot swap
// never changes a decision mid-stream — a session's answers stay
// bit-identical to the version it started on. The previous version is
// retained for instant rollback; a reload that fails validation
// (truncated file, checksum mismatch, wrong algorithm tag, …) leaves the
// live pointer untouched, so a corrupt artifact can never replace a
// healthy model.

// modelEntry is one registered model name: its live version, the
// retained previous version, and the control-plane state shared across
// versions (quality stats, circuit breaker, reload provenance).
type modelEntry struct {
	name string
	cur  atomic.Pointer[model]

	// ctl serializes reload/rollback; the request plane never takes it.
	ctl     sync.Mutex
	prev    *model // retained for rollback; nil until the first reload
	source  string // file the model came from; reloads re-read it
	breaker *breaker
	stats   *modelStats

	reloads   atomic.Uint64
	rollbacks atomic.Uint64
	// lastReloadErr is the most recent failed reload (nil after a
	// successful reload/rollback); readyz reports it as degraded state.
	lastReloadErr atomic.Pointer[reloadFailure]
}

// reloadFailure records one rejected reload for readyz and /v1/stats.
type reloadFailure struct {
	Kind  string    `json:"kind"`
	Error string    `json:"error"`
	At    time.Time `json:"at"`
}

// entry returns the registry slot for a model name.
func (s *Server) entry(name string) (*modelEntry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.models[name]
	return e, ok
}

// lookup resolves the live version of a model. The returned *model is
// pinned by the caller for the duration of its request: a concurrent
// swap retires the version only for requests that arrive after it.
func (s *Server) lookup(name string) (*model, bool) {
	e, ok := s.entry(name)
	if !ok {
		return nil, false
	}
	return e.cur.Load(), true
}

// newModel assembles one immutable model version (classifier + response
// arena). Versions share the entry's
// stats so quality telemetry is continuous across reloads.
func (s *Server) newModel(name string, algo core.EarlyClassifier, meta persist.Meta,
	version int, checksum uint64, stats *modelStats) *model {
	m := &model{
		info: ModelInfo{
			Name: name, Algorithm: algo.Name(), Dataset: meta.Dataset,
			Length: meta.Length, NumVars: meta.NumVars, NumClasses: meta.NumClasses,
			Version: version, Checksum: checksumHex(checksum),
		},
		algo:     algo,
		checksum: checksum,
		loadedAt: time.Now(),
		stats:    stats,
	}
	// Arena sizing: the largest hot response is a session state line; 96
	// bytes covers every fixed token plus two ints, the rest is names/ids.
	m.arenaCap = 96 + len(name) + len(m.info.Algorithm)
	return m
}

// reloadRequest optionally points a reload at a new artifact; with no
// body (or no path) the model's original source file is re-read.
type reloadRequest struct {
	Path string `json:"path,omitempty"`
}

// reloadResponse answers a successful reload or rollback.
type reloadResponse struct {
	Model           string `json:"model"`
	Algorithm       string `json:"algorithm"`
	Version         int    `json:"version"`
	PreviousVersion int    `json:"previous_version,omitempty"`
	Checksum        string `json:"checksum"`
}

// reloadError maps each persist failure mode to a distinct HTTP status
// and machine-readable kind, so operators (and the chaos suite) can tell
// a wrong file from a damaged one from the status alone. The old model
// keeps serving in every case.
func reloadError(err error) *apiError {
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return errk(http.StatusNotFound, "not_found", "reload: %v", err)
	case errors.Is(err, persist.ErrBadMagic):
		return errk(http.StatusUnsupportedMediaType, "bad_magic", "reload: %v", err)
	case errors.Is(err, persist.ErrVersion):
		return errk(http.StatusPreconditionFailed, "unsupported_version", "reload: %v", err)
	case errors.Is(err, persist.ErrTruncated):
		return errk(http.StatusUnprocessableEntity, "truncated", "reload: %v", err)
	case errors.Is(err, persist.ErrChecksum):
		return errk(http.StatusInternalServerError, "checksum", "reload: %v", err)
	case errors.Is(err, persist.ErrAlgorithmMismatch):
		return errk(http.StatusConflict, "algorithm_mismatch", "reload: %v", err)
	default:
		return errk(http.StatusBadRequest, "invalid", "reload: %v", err)
	}
}

// handleModelReload is POST /v1/models/{name}/reload: load and validate
// a fresh envelope, then atomically swap it in. The previous version is
// retained for rollback; on any validation failure the live version
// keeps serving and the failure is journaled and surfaced via readyz.
func (s *Server) handleModelReload(w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("name")
	e, ok := s.entry(name)
	if !ok {
		return errf(http.StatusNotFound, "unknown model %q", name)
	}
	var req reloadRequest
	if err := decodeOptionalJSON(r, &req); err != nil {
		return err
	}

	e.ctl.Lock()
	defer e.ctl.Unlock()
	path := e.source
	if req.Path != "" {
		path = req.Path
	}
	if path == "" {
		return errk(http.StatusConflict, "no_source",
			"model %q was registered in-memory; reload needs a \"path\"", name)
	}
	algo, meta, fi, err := persist.LoadFileInfo(path)
	if err != nil {
		ae := reloadError(err)
		e.lastReloadErr.Store(&reloadFailure{Kind: ae.kind, Error: ae.msg, At: time.Now()})
		s.reloadFailed.Inc()
		s.cfg.Obs.Emit("reload_failed", map[string]any{
			"model": name, "path": path, "kind": ae.kind, "error": ae.msg,
		})
		return ae
	}

	old := e.cur.Load()
	next := s.newModel(name, algo, meta, old.info.Version+1, fi.Checksum, e.stats)
	e.prev = old
	e.source = path
	e.cur.Store(next)
	e.reloads.Add(1)
	e.lastReloadErr.Store(nil)
	s.reloadOK.Inc()
	// A fresh model deserves a closed breaker; the swap is journaled
	// either way so the state history stays complete.
	e.breaker.reset("reload")
	s.cfg.Obs.Emit("model_reloaded", map[string]any{
		"model": name, "path": path, "version": next.info.Version,
		"previous_version": old.info.Version, "algorithm": next.info.Algorithm,
		"checksum": fi.Checksum, "bytes": fi.Bytes,
	})
	return WriteJSON(w, http.StatusOK, reloadResponse{
		Model: name, Algorithm: next.info.Algorithm, Version: next.info.Version,
		PreviousVersion: old.info.Version, Checksum: checksumHex(fi.Checksum),
	})
}

// handleModelRollback is POST /v1/models/{name}/rollback: swap the
// retained previous version back in. Rolling back twice swaps forward
// again — the two-deep history is a toggle, not a stack.
func (s *Server) handleModelRollback(w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("name")
	e, ok := s.entry(name)
	if !ok {
		return errf(http.StatusNotFound, "unknown model %q", name)
	}
	e.ctl.Lock()
	defer e.ctl.Unlock()
	if e.prev == nil {
		return errk(http.StatusConflict, "no_previous_version",
			"model %q has no previous version to roll back to", name)
	}
	old := e.cur.Load()
	next := e.prev
	e.prev = old
	e.cur.Store(next)
	e.rollbacks.Add(1)
	e.lastReloadErr.Store(nil)
	s.rollbacks.Inc()
	e.breaker.reset("rollback")
	s.cfg.Obs.Emit("model_rolled_back", map[string]any{
		"model": name, "version": next.info.Version, "from_version": old.info.Version,
	})
	return WriteJSON(w, http.StatusOK, reloadResponse{
		Model: name, Algorithm: next.info.Algorithm, Version: next.info.Version,
		PreviousVersion: old.info.Version, Checksum: checksumHex(next.checksum),
	})
}

// checksumHex renders the envelope checksum the way /v1/models and
// /v1/stats report it; in-memory models (no envelope) render empty.
func checksumHex(sum uint64) string {
	if sum == 0 {
		return ""
	}
	const hex = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hex[sum&0xf]
		sum >>= 4
	}
	return string(b[:])
}

// decodeOptionalJSON parses a JSON body like decodeJSON but treats an
// empty body as the zero value — control-plane POSTs take no required
// fields.
func decodeOptionalJSON(r *http.Request, v any) error {
	err := decodeJSON(r, v)
	if err == nil {
		return nil
	}
	var ae *apiError
	if errors.As(err, &ae) && ae.status == http.StatusBadRequest {
		// decodeJSON wraps io.EOF as a malformed-body 400; an absent body
		// is fine here, anything else is still a client error.
		if ae.msg == "malformed request body: EOF" {
			return nil
		}
	}
	return err
}
