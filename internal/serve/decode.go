package serve

import (
	"bytes"
	"io"
	"net/http"
	"sync"

	"github.com/goetsc/goetsc/internal/wire"
)

// Hand-scanned hot-path request bodies — the decode-side mirror of
// render.go. The three bodies every session and one-shot request
// carries implement wireDecoder: their canonical form (package wire's
// subset: exact keys, plain ASCII strings, numbers, booleans, number
// arrays) is scanned by hand, and anything else — escapes, null,
// case-folded or unknown keys, trailing data, out-of-range numbers —
// goes to the unchanged encoding/json decode in decodeStrict. An
// accepted body decodes to exactly what encoding/json yields; the fuzz
// targets in decode_test.go diff the two.

// wireDecoder is a request body with a hand-scanned fast path.
// decodeWire reports whether the body was inside the subset, and leaves
// the receiver untouched when it was not.
type wireDecoder interface {
	decodeWire(s *wire.Scanner) bool
}

// wireBody is a pooled body buffer and the scanner (with its scratch
// space) that reads it.
type wireBody struct {
	buf []byte
	sc  wire.Scanner
}

var wireBodies = sync.Pool{New: func() any { return new(wireBody) }}

// maxPooledBody bounds the buffer a pooled wireBody keeps, so one large
// request does not pin its memory for the life of the process.
const maxPooledBody = 64 << 10

// decodeJSON parses one JSON body strictly: unknown fields, trailing
// garbage and oversized bodies are errors. Bodies with a fast path are
// read whole into a pooled buffer first; if that read fails, the bytes
// that did arrive are replayed into decodeStrict followed by the same
// error, so an oversize or truncated body answers exactly as it would
// have without the buffer.
func decodeJSON(r *http.Request, v any) error {
	wd, ok := v.(wireDecoder)
	if !ok {
		return decodeStrict(r.Body, v)
	}
	wb := wireBodies.Get().(*wireBody)
	defer putWireBody(wb)
	var err error
	if wb.buf, err = readAll(r.Body, wb.buf[:0]); err != nil {
		return decodeStrict(io.MultiReader(bytes.NewReader(wb.buf), errReader{err}), v)
	}
	wb.sc.Reset(wb.buf)
	if wd.decodeWire(&wb.sc) {
		return nil
	}
	return decodeStrict(bytes.NewReader(wb.buf), v)
}

func putWireBody(wb *wireBody) {
	if cap(wb.buf) <= maxPooledBody {
		wb.sc.Reset(nil)
		wireBodies.Put(wb)
	}
}

// readAll is io.ReadAll appending into b.
func readAll(r io.Reader, b []byte) ([]byte, error) {
	if cap(b) == 0 {
		b = make([]byte, 0, 512)
	}
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// errReader replays a body read's error after the bytes that preceded it.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

func (req *classifyRequest) decodeWire(s *wire.Scanner) bool {
	var model []byte
	var values wire.Rows
	for s.Next() {
		switch string(s.Key()) {
		case "model":
			model = s.String()
		case "values":
			values = s.Rows()
		default:
			return false
		}
	}
	if !s.Done() {
		return false
	}
	if model != nil {
		req.Model = string(model)
	}
	if values.Valid() {
		req.Values = values.Into(req.Values)
	}
	return true
}

func (req *pointsRequest) decodeWire(s *wire.Scanner) bool {
	var values wire.Rows
	last, seenLast := false, false
	for s.Next() {
		switch string(s.Key()) {
		case "values":
			values = s.Rows()
		case "last":
			last, seenLast = s.Bool(), true
		default:
			return false
		}
	}
	if !s.Done() {
		return false
	}
	if values.Valid() {
		req.Values = values.Into(req.Values)
	}
	if seenLast {
		req.Last = last
	}
	return true
}

func (req *sessionCreateRequest) decodeWire(s *wire.Scanner) bool {
	var model, id []byte
	for s.Next() {
		switch string(s.Key()) {
		case "model":
			model = s.String()
		case "session_id":
			id = s.String()
		default:
			return false
		}
	}
	if !s.Done() {
		return false
	}
	if model != nil {
		req.Model = string(model)
	}
	if id != nil {
		req.SessionID = string(id)
	}
	return true
}
