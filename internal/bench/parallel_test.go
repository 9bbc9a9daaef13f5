package bench

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/goetsc/goetsc/internal/obs"
)

// detCfg is the fast-preset matrix used by the determinism tests.
func detCfg(workers int) RunConfig {
	return RunConfig{
		Datasets:   []string{"PowerCons", "Biological"},
		Algorithms: []string{"ECTS", "TEASER"},
		Scale:      0.12,
		Folds:      2,
		Seed:       9,
		Preset:     Fast,
		Workers:    workers,
	}
}

// stripWallClock zeroes the measured wall-clock fields, the only part of
// Results that legitimately varies between runs.
func stripWallClock(r *Results) {
	for i := range r.Cells {
		r.Cells[i].Result.TrainTime = 0
		r.Cells[i].Result.TestTime = 0
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run in -short mode")
	}
	serial, err := Run(detCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	stripWallClock(serial)
	serialJSON, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 8} {
		parallel, err := Run(detCfg(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		stripWallClock(parallel)
		// Byte-identical marshalled form (ordering included) and deep
		// equality of the full structure, index map and all.
		parallelJSON, err := json.Marshal(parallel)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(serialJSON, parallelJSON) {
			t.Fatalf("workers=%d results differ from serial:\n%s\nvs\n%s",
				workers, serialJSON, parallelJSON)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("workers=%d Results not deeply equal to serial", workers)
		}
	}
}

func TestParallelRunObservabilityComplete(t *testing.T) {
	// Concurrent cells must still emit one journal record per cell, a
	// complete span hierarchy, and monotonically numbered progress lines.
	var progress, journal bytes.Buffer
	reg := obs.NewRegistry()
	col := obs.New(obs.Options{Journal: obs.NewJournal(&journal), Metrics: reg})
	cfg := detCfg(8)
	cfg.Progress = &progress
	cfg.Obs = col
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Journal().Err(); err != nil {
		t.Fatal(err)
	}
	wantCells := len(res.Cells)
	lines := strings.Split(strings.TrimSpace(progress.String()), "\n")
	if len(lines) != wantCells {
		t.Fatalf("progress lines = %d, want %d:\n%s", len(lines), wantCells, progress.String())
	}
	for i, l := range lines {
		prefix := "[" + strconv.Itoa(i+1) + "/" + strconv.Itoa(wantCells) + "] "
		if !strings.HasPrefix(l, prefix) {
			t.Fatalf("progress line %d = %q, want prefix %q", i, l, prefix)
		}
	}
	var cellRecords int
	completedSeen := map[int]bool{}
	for _, line := range strings.Split(strings.TrimSpace(journal.String()), "\n") {
		var rec struct {
			Type      string `json:"type"`
			Completed int    `json:"completed"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		if rec.Type == "cell" {
			cellRecords++
			if completedSeen[rec.Completed] {
				t.Fatalf("duplicate completed counter %d", rec.Completed)
			}
			completedSeen[rec.Completed] = true
		}
	}
	if cellRecords != wantCells {
		t.Fatalf("cell records = %d, want %d", cellRecords, wantCells)
	}
	if got := reg.Counter("etsc_cells_total", "").Value(); got != int64(wantCells) {
		t.Fatalf("etsc_cells_total = %d, want %d", got, wantCells)
	}
}

func TestParallelTrainBudgetDeterministic(t *testing.T) {
	// Timed-out cells must also agree across worker counts: the fold-level
	// stop latch discards folds the serial engine would never have run.
	run := func(workers int) *Results {
		res, err := Run(RunConfig{
			Datasets:    []string{"PowerCons"},
			Algorithms:  []string{"ECTS", "TEASER"},
			Scale:       0.2,
			Folds:       3,
			Seed:        2,
			Preset:      Fast,
			TrainBudget: time.Nanosecond,
			Workers:     workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		stripWallClock(res)
		return res
	}
	serial := run(1)
	parallel := run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("timed-out results differ: %+v vs %+v", serial, parallel)
	}
	cell, ok := serial.Get("PowerCons", "ECTS")
	if !ok || !cell.Result.TimedOut {
		t.Fatal("nanosecond budget did not time out")
	}
}

func TestGetUsesIndexAfterRun(t *testing.T) {
	res := fastRun(t)
	if res.index == nil {
		t.Fatal("Run did not build the cell index")
	}
	if len(res.index) != len(res.Cells) {
		t.Fatalf("index size = %d, cells = %d", len(res.index), len(res.Cells))
	}
	for _, c := range res.Cells {
		got, ok := res.Get(c.Dataset, c.Algorithm)
		if !ok || got.Dataset != c.Dataset || got.Algorithm != c.Algorithm {
			t.Fatalf("indexed Get(%s, %s) = %+v, %v", c.Dataset, c.Algorithm, got, ok)
		}
	}
	if _, ok := res.Get("nope", "ECTS"); ok {
		t.Fatal("indexed Get found a nonexistent cell")
	}
	// A hand-assembled Results (no index) still answers via linear scan.
	manual := &Results{Cells: []Cell{{Dataset: "D", Algorithm: "A"}}}
	if _, ok := manual.Get("D", "A"); !ok {
		t.Fatal("linear-scan fallback broken")
	}
}

func BenchmarkRunMatrixSerial(b *testing.B)   { benchmarkMatrix(b, 1) }
func BenchmarkRunMatrixParallel(b *testing.B) { benchmarkMatrix(b, 0) }

// benchmarkMatrix measures one fast-preset matrix wall time at the given
// worker count — the serial/parallel pair quantifies the engine speedup.
func benchmarkMatrix(b *testing.B, workers int) {
	cfg := RunConfig{
		Datasets:   []string{"PowerCons", "Biological"},
		Algorithms: []string{"ECTS", "S-WEASEL", "TEASER"},
		Scale:      0.12,
		Folds:      2,
		Seed:       1,
		Preset:     Fast,
		Workers:    workers,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
