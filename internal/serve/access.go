package serve

import (
	"context"
	"net/http"
	"time"

	"github.com/goetsc/goetsc/internal/obs"
)

// Request tracing and access logging. Every request resolves a trace
// context — adopted from the client's X-Etsc-Trace header when present,
// freshly minted otherwise — that is echoed on the response (with the
// server's own span ID) and stamped on one structured "access" record in
// the JSONL journal. The record correlates trace ID → route, status,
// model, session, prefix length, decision, and the wall/queue/classify
// split, which is exactly the join key the load generator's correlation
// report and a future session router need.

// reqInfo accumulates what one request's access record and quality
// telemetry need. wrap allocates it; handlers fill it as they learn the
// model, session and decision.
type reqInfo struct {
	model   string
	session string
	prefix  int // series length this request decided over
	label   int
	decided bool // a final decision was reported
	pending bool // a session answered "pending"

	queue    time.Duration // wait for a classification slot
	classify time.Duration // time inside Classify/Advance
	worked   bool          // a classification actually ran
}

type reqInfoKey struct{}

// info returns the request's reqInfo; handlers reached outside wrap (in
// tests calling handlers directly) get a discardable one.
func info(r *http.Request) *reqInfo {
	if ri, ok := r.Context().Value(reqInfoKey{}).(*reqInfo); ok {
		return ri
	}
	return &reqInfo{}
}

// StatusWriter records the response status for the access record; the
// default 200 covers handlers that never call WriteHeader. The fleet
// router wraps its responses in it too.
type StatusWriter struct {
	http.ResponseWriter
	status int
}

func (w *StatusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// Status is the status written so far, 200 when none was.
func (w *StatusWriter) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// TraceRequest resolves the request's trace and echoes it (rewritten to
// this hop's span) on the response. It returns this hop's trace context,
// the client's span (zero when the request was untraced), and the
// request's context carrying the trace. The fleet router traces its
// requests with it too.
func TraceRequest(w http.ResponseWriter, r *http.Request) (obs.TraceContext, obs.SpanID, context.Context) {
	client, adopted := obs.TraceFromRequest(r)
	tc := client
	var parent obs.SpanID
	if adopted {
		parent = client.Span
		tc = client.Child()
	}
	w.Header().Set(obs.TraceHeader, tc.Header())
	return tc, parent, obs.WithTrace(r.Context(), tc)
}

// logAccess emits one structured access record. Only called when a
// journal is configured, so journal-less servers pay nothing.
func (s *Server) logAccess(route string, tc obs.TraceContext, parent obs.SpanID, status int, wall time.Duration, ri *reqInfo) {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	fields := map[string]any{
		"trace":   tc.Trace.String(),
		"span":    tc.Span.String(),
		"route":   route,
		"status":  status,
		"wall_ms": ms(wall),
	}
	if !parent.IsZero() {
		fields["parent_span"] = parent.String()
	}
	if ri.worked {
		fields["queue_ms"] = ms(ri.queue)
		fields["classify_ms"] = ms(ri.classify)
	}
	if ri.model != "" {
		fields["model"] = ri.model
	}
	if ri.session != "" {
		fields["session"] = ri.session
	}
	if ri.prefix > 0 {
		fields["prefix"] = ri.prefix
	}
	if ri.decided {
		fields["decision"] = ri.label
	}
	if ri.pending {
		fields["pending"] = true
	}
	s.cfg.Obs.Emit("access", fields)
}
