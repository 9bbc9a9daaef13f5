package core_test

import (
	"testing"

	"github.com/goetsc/goetsc/internal/testenv"
)

// Speedup floors of the streaming cursors over per-batch
// reclassification, each 85% of the ratio committed in BENCH_PR7.json
// (commit b9db3da).
const (
	floorEDSCCursorVsReclassify   = 8.371 // edsc_stream_cursor_vs_reclassify
	floorTEASERCursorVsReclassify = 3.352 // teaser_stream_cursor_vs_reclassify
)

// BenchmarkSpeedupGate fails when a native cursor loses its speedup over
// re-classifying every streamed prefix. `make test` runs it once
// (-benchtime 1x); `go test` alone never does.
func BenchmarkSpeedupGate(b *testing.B) {
	b.Run("edsc_stream_cursor_vs_reclassify", func(b *testing.B) {
		algo, probe := nativeCursorFixture(b, &edscFixture, "EDSC", edscData)
		testenv.GateSpeedup(b, floorEDSCCursorVsReclassify, 2000,
			func() { reclassifyChunks(algo, probe) },
			func() { cursorChunks(algo, probe) })
	})
	b.Run("teaser_stream_cursor_vs_reclassify", func(b *testing.B) {
		algo, probe := nativeCursorFixture(b, &teaserFixture, "TEASER", teaserData)
		testenv.GateSpeedup(b, floorTEASERCursorVsReclassify, 50,
			func() { reclassifyChunks(algo, probe) },
			func() { cursorChunks(algo, probe) })
	})
}
