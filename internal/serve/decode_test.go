package serve

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/goetsc/goetsc/internal/testenv"
	"github.com/goetsc/goetsc/internal/wire"
)

func sameFloats(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameRows(a, b [][]float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameFloats(a[i], b[i]) {
			return false
		}
	}
	return true
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%T: %v", err, err)
}

// checkWireDecode holds one body to the fast-path contract for one
// request type. The fast path alone: whatever it accepts, encoding/json
// accepts and decodes to the same bits, and whatever it declines leaves
// the target untouched. The whole decodeJSON, fast path plus fallback:
// the same error and the same value as decodeStrict alone, also when
// the body limit cuts the read short. fresh builds the target a handler
// decodes into — a pooled one may carry stale slices.
func checkWireDecode[T any, P interface {
	*T
	wireDecoder
}](t *testing.T, body []byte, fresh func() P, same func(a, b P) bool) {
	t.Helper()
	got := fresh()
	var s wire.Scanner
	s.Reset(body)
	if got.decodeWire(&s) {
		want := fresh()
		if err := decodeStrict(bytes.NewReader(body), want); err != nil {
			t.Fatalf("fast path accepted %q, encoding/json rejects it: %v", body, err)
		}
		if !same(got, want) {
			t.Fatalf("fast path decoded %q to %+v, encoding/json to %+v", body, *got, *want)
		}
	} else if !same(got, fresh()) {
		t.Fatalf("fast path declined %q but changed its target to %+v", body, *got)
	}
	for _, limit := range []int64{1 << 20, int64(len(body) / 2)} {
		a, b := fresh(), fresh()
		r := httptest.NewRequest(http.MethodPost, "/", nil)
		r.Body = http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), limit)
		errA := decodeJSON(r, a)
		errB := decodeStrict(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), limit), b)
		if errText(errA) != errText(errB) {
			t.Fatalf("limit %d, body %q: decodeJSON error %s, encoding/json %s", limit, body, errText(errA), errText(errB))
		}
		if !same(a, b) {
			t.Fatalf("limit %d, body %q: decodeJSON gave %+v, encoding/json %+v", limit, body, *a, *b)
		}
	}
}

// staleClassify is a pooled classify request as getClassifyReq hands it
// out after earlier requests: empty, but over backing arrays that still
// hold old rows.
func staleClassify() *classifyRequest {
	rows := [][]float64{{9, 9, 9, 9, 9}, {8, 8}, nil}
	return &classifyRequest{Values: rows[:0]}
}

func sameClassify(a, b *classifyRequest) bool {
	return a.Model == b.Model && sameRows(a.Values, b.Values)
}

func FuzzDecodeClassify(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		checkWireDecode(t, body, func() *classifyRequest { return &classifyRequest{} }, sameClassify)
		checkWireDecode(t, body, staleClassify, sameClassify)
	})
}

func FuzzDecodePoints(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		checkWireDecode(t, body, func() *pointsRequest { return &pointsRequest{} },
			func(a, b *pointsRequest) bool { return a.Last == b.Last && sameRows(a.Values, b.Values) })
	})
}

func FuzzDecodeSessionCreate(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		checkWireDecode(t, body, func() *sessionCreateRequest { return &sessionCreateRequest{} },
			func(a, b *sessionCreateRequest) bool { return *a == *b })
	})
}

// replayBody is a request body that can be rewound, so an allocation
// gate can read the same body again without building a new reader.
type replayBody struct {
	b   []byte
	off int
}

func (r *replayBody) Read(p []byte) (int, error) {
	if r.off == len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.off:])
	r.off += n
	return n, nil
}

func (r *replayBody) Close() error { return nil }

// TestClassifyDecodeAllocs gates the part of POST /v1/classify that
// TestClassifyHotPathZeroAlloc leaves out: reading a canonical body
// into the pooled buffer and decoding it into a warmed pooled request.
// Only the model name is a fresh allocation.
func TestClassifyDecodeAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation gates are meaningless under -race")
	}
	s := New(Config{})
	body := &replayBody{b: []byte(`{"model":"ects","values":[[0.5,0.52,0.48,0.51,0.49,0.5,0.53,0.47]]}`)}
	r := httptest.NewRequest(http.MethodPost, "/v1/classify", nil)
	r.Body = body
	decode := func() {
		body.off = 0
		req := s.getClassifyReq()
		if err := decodeJSON(r, req); err != nil {
			t.Fatal(err)
		}
		if req.Model != "ects" || len(req.Values) != 1 || len(req.Values[0]) != 8 {
			t.Fatalf("decoded %+v", *req)
		}
		s.reqPool.Put(req)
	}
	decode() // warm the pools
	if allocs := testing.AllocsPerRun(200, decode); allocs > 2 {
		t.Fatalf("classify body decode allocates %.1f allocs/op, want at most 2", allocs)
	}
}

// BenchmarkClassifyDecode compares the two decodes of a canonical
// 8-point classify body into a pooled request: decodeJSON's fast path
// against the encoding/json fallback it keeps.
func BenchmarkClassifyDecode(b *testing.B) {
	s := New(Config{})
	body := &replayBody{b: []byte(`{"model":"ects","values":[[0.5123,0.5245,0.4871,0.5102,0.4933,0.5011,0.5302,0.4719]]}`)}
	r := httptest.NewRequest(http.MethodPost, "/v1/classify", nil)
	r.Body = body
	for _, c := range []struct {
		name   string
		decode func(req *classifyRequest) error
	}{
		{"wire", func(req *classifyRequest) error { return decodeJSON(r, req) }},
		{"encoding_json", func(req *classifyRequest) error { return decodeStrict(r.Body, req) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				body.off = 0
				req := s.getClassifyReq()
				if err := c.decode(req); err != nil {
					b.Fatal(err)
				}
				s.reqPool.Put(req)
			}
		})
	}
}
