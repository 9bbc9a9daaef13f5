package ingest

import (
	"bufio"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"time"

	"github.com/goetsc/goetsc/internal/wire"
)

// Summary is the trailing NDJSON line of one ingest request: the
// pipeline counters for everything the stream did, marked so clients
// can tell it from a Decision line.
type Summary struct {
	Summary bool `json:"summary"`
	Stats
	ParseErrors int64 `json:"parse_errors"`
	// ReadError reports a body-stream failure (truncation, reset) that
	// ended the request early; empty on a clean EOF.
	ReadError string `json:"read_error,omitempty"`
	WallMS    int64  `json:"wall_ms"`
}

// Handler returns the POST /v1/ingest endpoint: the request body is an
// NDJSON event stream, the response an NDJSON stream of decisions as
// they fall out of the pipeline, closed by one summary line.
//
// Each request gets its own Pipeline from build — one request is one
// ingest stream, with its own entities, drift state and counters — so
// build can read per-stream options (model name, shard count) off the
// request. The onDecision sink handed to build must be wired into the
// pipeline's OnDecision. Decisions stream back with a per-line flush,
// so the handler must be mounted outside any buffering middleware
// (http.TimeoutHandler buffers whole responses — mount this on the
// root mux beside it, the way the pprof plane is).
//
// Backpressure is end to end: a full shard queue blocks Submit, Submit
// blocks the body read, and TCP flow control slows the producer.
func Handler(build func(r *http.Request, onDecision func(Decision)) (*Pipeline, error)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, `{"error":"POST required"}`, http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		// Decisions stream back while the body is still uploading. On
		// HTTP/1 the server halts body reads once the response starts
		// unless full duplex is enabled, which would silently truncate
		// the stream at the first decision; HTTP/2 duplexes natively and
		// returns ErrNotSupported, which is fine to ignore.
		_ = http.NewResponseController(w).EnableFullDuplex()
		flusher, _ := w.(http.Flusher)
		var mu sync.Mutex // decisions arrive from shard goroutines
		writeLine := func(v any) {
			mu.Lock()
			defer mu.Unlock()
			b, err := json.Marshal(v)
			if err != nil {
				return
			}
			w.Write(append(b, '\n'))
			if flusher != nil {
				flusher.Flush()
			}
		}
		p, err := build(r, func(d Decision) { writeLine(d) })
		if err != nil {
			http.Error(w, `{"error":`+strconvQuote(err.Error())+`}`, http.StatusBadRequest)
			return
		}
		defer p.Close()

		start := time.Now()
		var parseErrors int64
		sc := bufio.NewScanner(r.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			var ev Event
			if err := DecodeEvent(line, &ev); err != nil {
				// A damaged line poisons only itself; the stream goes on.
				parseErrors++
				continue
			}
			if err := p.Submit(ev); err != nil {
				break
			}
		}
		p.Flush()
		sum := Summary{
			Summary: true, Stats: p.Stats(),
			ParseErrors: parseErrors, WallMS: time.Since(start).Milliseconds(),
		}
		if err := sc.Err(); err != nil {
			sum.ReadError = err.Error()
		}
		writeLine(sum)
	})
}

// errNoEntity rejects an event line that parses but names no entity.
var errNoEntity = errors.New("ingest: event has no entity")

// DecodeEvent parses one NDJSON event line into *ev, replacing its
// contents. A line in package wire's canonical subset is scanned by
// hand; any other line takes json.Unmarshal, so both decode to the same
// Event. A line that does not parse, or names no entity, is an error.
func DecodeEvent(line []byte, ev *Event) error {
	*ev = Event{}
	if !scanEvent(line, ev) {
		if err := json.Unmarshal(line, ev); err != nil {
			return err
		}
	}
	if ev.Entity == "" {
		return errNoEntity
	}
	return nil
}

// scanEvent is DecodeEvent's fast path; it leaves *ev untouched unless
// the whole line is inside the subset.
func scanEvent(line []byte, ev *Event) bool {
	var s wire.Scanner
	s.Reset(line)
	var e Event
	var entity []byte
	for s.Next() {
		switch string(s.Key()) {
		case "entity":
			entity = s.String()
		case "t":
			e.T = s.Int()
		case "values":
			e.Values = s.Floats(nil)
		case "label":
			e.Label = s.Int()
		case "labeled":
			e.Labeled = s.Bool()
		default:
			return false
		}
	}
	if !s.Done() {
		return false
	}
	e.Entity = string(entity)
	*ev = e
	return true
}

// strconvQuote is a tiny JSON string quoter for the one pre-stream
// error path, avoiding a Marshal of a map for a fixed shape.
func strconvQuote(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}
