package serve

import (
	"fmt"
	"sync"
	"time"

	"github.com/goetsc/goetsc/internal/core"
	"github.com/goetsc/goetsc/internal/ingest"
	"github.com/goetsc/goetsc/internal/persist"
	ts "github.com/goetsc/goetsc/internal/timeseries"
)

// The ingest bridge: *Server satisfies ingest.Registry, so the
// continuous-ingest pipeline resolves model versions from — and swaps
// retrained models into — the same versioned registry the HTTP control
// plane operates on. A pinned version behaves exactly like a streaming
// session's: windows in flight finish on it, a hot swap only reaches
// windows opened afterwards.

// Pin resolves the live version of a model for the ingest pipeline. The
// returned Begin builds cursors that carry the version's serialization
// needs with them: native cursors advance lock-free, fallback cursors
// (which replay Classify and may reuse model scratch) arrive wrapped in
// the version's mutex — the same discipline handleSessionPoints applies.
func (s *Server) Pin(name string) (ingest.Pinned, error) {
	e, ok := s.entry(name)
	if !ok {
		return ingest.Pinned{}, fmt.Errorf("serve: unknown model %q", name)
	}
	m := e.cur.Load()
	return ingest.Pinned{
		Name:       name,
		Version:    m.info.Version,
		Length:     m.info.Length,
		NumVars:    m.info.NumVars,
		NumClasses: m.info.NumClasses,
		Begin: func(in ts.Instance) core.Cursor {
			cur, native := core.NewCursor(m.algo, in)
			if native {
				return cur
			}
			return &lockedCursor{cur: cur, mu: &m.mu}
		},
	}, nil
}

// lockedCursor serializes a fallback cursor on its model's mutex, so
// many entities may hold cursors of one non-incremental model version
// and advance them from different shards safely.
type lockedCursor struct {
	cur core.Cursor
	mu  *sync.Mutex
}

func (lc *lockedCursor) Advance(upto int) (label, consumed int, done bool) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.cur.Advance(upto)
}

// SwapModel atomically replaces a model's live version with a freshly
// trained in-memory classifier — the retrainer's half of the hot-reload
// path. It mirrors handleModelReload minus the file I/O: version
// numbering continues, the previous version is retained for rollback,
// the breaker resets, and the swap is journaled. The entry's source
// path survives, so an operator reload can still restore the on-disk
// artifact afterwards.
func (s *Server) SwapModel(name string, algo core.EarlyClassifier, meta persist.Meta) (int, error) {
	if algo == nil {
		return 0, fmt.Errorf("serve: swap of %q needs a classifier", name)
	}
	e, ok := s.entry(name)
	if !ok {
		return 0, fmt.Errorf("serve: unknown model %q", name)
	}
	e.ctl.Lock()
	defer e.ctl.Unlock()
	old := e.cur.Load()
	next := s.newModel(name, algo, meta, old.info.Version+1, 0, e.stats)
	e.prev = old
	e.cur.Store(next)
	e.reloads.Add(1)
	e.lastReloadErr.Store(nil)
	s.reloadOK.Inc()
	e.breaker.reset("swap")
	s.cfg.Obs.Emit("model_swapped", map[string]any{
		"model": name, "version": next.info.Version,
		"previous_version": old.info.Version, "algorithm": next.info.Algorithm,
		"dataset": meta.Dataset, "swapped_at": time.Now().Format(time.RFC3339Nano),
	})
	return next.info.Version, nil
}
