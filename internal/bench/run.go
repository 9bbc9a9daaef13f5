package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/goetsc/goetsc/internal/core"
	"github.com/goetsc/goetsc/internal/datasets"
	"github.com/goetsc/goetsc/internal/metrics"
	"github.com/goetsc/goetsc/internal/obs"
	"github.com/goetsc/goetsc/internal/sched"
	ts "github.com/goetsc/goetsc/internal/timeseries"
)

// RetryPolicy re-runs failed (not timed-out) cells with exponential
// backoff. Every attempt uses the same seed, so a retry is an exact
// re-execution: a deterministic failure fails every attempt, while a
// transient fault (the chaos suite keys faults by attempt number)
// disappears on re-run without poisoning a multi-hour matrix.
type RetryPolicy struct {
	// Attempts is the total number of attempts per cell; <= 1 disables
	// retrying.
	Attempts int
	// BaseDelay is the backoff before the first retry; each further
	// retry doubles it.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (0 = uncapped).
	MaxDelay time.Duration
}

// attempts normalizes the configured attempt count.
func (p RetryPolicy) attempts() int {
	if p.Attempts <= 1 {
		return 1
	}
	return p.Attempts
}

// delay returns the backoff before the given retry (attempt >= 1).
func (p RetryPolicy) delay(attempt int) time.Duration {
	d := p.BaseDelay
	for i := 1; i < attempt; i++ {
		d *= 2
		if p.MaxDelay > 0 && d >= p.MaxDelay {
			return p.MaxDelay
		}
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		return p.MaxDelay
	}
	return d
}

// RunConfig controls one evaluation matrix run.
type RunConfig struct {
	// Datasets restricts the run (empty = all twelve).
	Datasets []string
	// Algorithms restricts the run (empty = all eight).
	Algorithms []string
	// Scale shrinks dataset heights for faster runs (1 = paper size).
	Scale float64
	// Folds is the cross-validation fold count; default 5.
	Folds int
	// Seed fixes data generation and fold assignment.
	Seed int64
	// TrainBudget bounds each fold's training time (0 = unlimited),
	// reproducing the paper's 48-hour cutoff.
	TrainBudget time.Duration
	// Preset selects Paper (Table 4) or Fast parameters.
	Preset Preset
	// Progress, when non-nil, receives one line per completed cell with
	// completion count, per-cell duration and a running ETA.
	Progress io.Writer
	// Obs, when non-nil, receives the run's span hierarchy (run →
	// dataset → algorithm → fold → fit/classify), one journal record per
	// completed cell, and latency metrics. The zero value is a no-op.
	Obs *obs.Collector
	// Workers bounds the evaluation engine's concurrency: datasets,
	// (dataset, algorithm) cells, and the folds inside a cell all share
	// one worker pool of this size. 0 selects runtime.NumCPU(); 1
	// reproduces the serial engine. Results are identical at any worker
	// count (wall-clock measurements aside): every cell writes into an
	// index-addressed slot planned before the run starts.
	Workers int
	// FailFast restores the abort-on-first-error semantics: the run
	// stops scheduling new cells, cancels in-flight cells at fold
	// granularity, and returns the lowest-slot error with no Results. By
	// default the engine instead completes every remaining cell, records
	// failures in Cell.Status/Err, and renders them as DNF — the paper's
	// own convention for algorithms that did not finish (Table 5 / the
	// hatched Figure 13 cells).
	FailFast bool
	// Retry re-runs failed cells per RetryPolicy (ignored under
	// FailFast; timed-out cells are never retried, matching the paper's
	// budget-cutoff rule).
	Retry RetryPolicy
	// Checkpoint, when non-nil, receives one CheckpointRecord JSONL line
	// per completed cell, flushed as cells finish so a killed run leaves
	// a loadable prefix.
	Checkpoint io.Writer
	// Resume maps CheckpointKey values to records of a previous run
	// (LoadCheckpointFile). Cells whose record is Resumable are filled
	// from it instead of being re-executed; failed and missing cells run
	// again.
	Resume map[string]CheckpointRecord
	// WrapFoldFactory, when non-nil, wraps the algorithm factory used
	// for every (cell, attempt, fold) work unit — the deterministic
	// fault-injection hook (internal/faults). Test-only; production runs
	// leave it nil.
	WrapFoldFactory func(dataset, algorithm string, attempt, fold int, f core.Factory) core.Factory
}

// CellStatus classifies one cell's outcome.
type CellStatus string

// Cell statuses. The zero value (hand-assembled Results) reads as ok.
const (
	// StatusOK marks a fully evaluated cell.
	StatusOK CellStatus = "ok"
	// StatusFailed marks a cell whose evaluation returned an error on
	// every attempt.
	StatusFailed CellStatus = "failed"
	// StatusTimedOut marks a cell disqualified by the training budget
	// (the paper's 48-hour cutoff).
	StatusTimedOut CellStatus = "timed_out"
	// StatusPanicked marks a cell whose algorithm panicked on every
	// attempt; the recovered stack is journaled.
	StatusPanicked CellStatus = "panicked"
	// StatusSkipped marks a cell never evaluated because its dataset
	// failed to prepare.
	StatusSkipped CellStatus = "skipped"
)

// Cell is one dataset × algorithm evaluation outcome.
type Cell struct {
	Dataset   string
	Algorithm string
	Result    metrics.Result
	// BatchLen is the time points consumed per decision step (Figure 13).
	BatchLen int
	// Status classifies the outcome; empty (hand-assembled Results)
	// reads as ok.
	Status CellStatus `json:",omitempty"`
	// Err is the final attempt's error for failed, panicked and skipped
	// cells (a string so Results marshal deterministically).
	Err string `json:",omitempty"`
	// Attempts counts evaluation attempts actually executed (0 for
	// hand-assembled or skipped cells).
	Attempts int `json:",omitempty"`
}

// DNF reports whether the cell did not finish — by budget timeout,
// failure, panic or skip — and must render hatched, exactly like the
// paper's tables.
func (c Cell) DNF() bool {
	switch c.Status {
	case StatusFailed, StatusPanicked, StatusSkipped, StatusTimedOut:
		return true
	}
	return c.Result.TimedOut
}

// Results holds a completed evaluation matrix.
type Results struct {
	Cells    []Cell
	Profiles map[string]core.Profile
	Datasets []string // run order
	Algos    []string // paper order
	Freq     map[string]time.Duration
	Length   map[string]int

	// index maps (dataset, algorithm) to a Cells position; Run builds it
	// once after the matrix completes, and Get builds it lazily for
	// hand-assembled Results (decoded JSON, tests), so every lookup is
	// O(1). Cells must not change between Gets.
	index map[cellKey]int
}

// cellKey addresses one cell in the Results index.
type cellKey struct {
	dataset, algorithm string
}

// buildIndex (re)builds the O(1) Get index from Cells.
func (r *Results) buildIndex() {
	r.index = make(map[cellKey]int, len(r.Cells))
	for i, c := range r.Cells {
		r.index[cellKey{c.Dataset, c.Algorithm}] = i
	}
}

// Run executes the matrix.
func Run(cfg RunConfig) (*Results, error) {
	if cfg.Scale <= 0 || cfg.Scale > 1 {
		cfg.Scale = 1
	}
	if cfg.Folds <= 0 {
		cfg.Folds = 5
	}
	specs := datasets.All()
	if len(cfg.Datasets) > 0 {
		want := map[string]bool{}
		for _, n := range cfg.Datasets {
			want[n] = true
		}
		var filtered []datasets.Spec
		for _, s := range specs {
			if want[s.Name] {
				filtered = append(filtered, s)
			}
		}
		if len(filtered) == 0 {
			return nil, fmt.Errorf("bench: no datasets match %v", cfg.Datasets)
		}
		specs = filtered
	}
	res := &Results{
		Profiles: map[string]core.Profile{},
		Freq:     map[string]time.Duration{},
		Length:   map[string]int{},
	}

	// Plan the whole matrix up front: the factory lists give the total
	// cell count for progress/ETA reporting, and the run-order algorithm
	// list is collected once, deterministically, instead of being grown
	// per-dataset (which could interleave names when datasets yield
	// different factory sets).
	plans := make([][]NamedFactory, len(specs))
	totalCells := 0
	seen := map[string]bool{}
	for i, spec := range specs {
		plans[i] = AlgorithmsByName(spec.Name, cfg.Preset, cfg.Seed, cfg.Algorithms)
		totalCells += len(plans[i])
		for _, f := range plans[i] {
			if !seen[f.Name] {
				seen[f.Name] = true
				res.Algos = append(res.Algos, f.Name)
			}
		}
	}

	pool := sched.New(cfg.Workers)
	run := cfg.Obs.Start("run",
		obs.Float("scale", cfg.Scale), obs.Int("folds", cfg.Folds),
		obs.Int("datasets", len(specs)), obs.Int("cells", totalCells),
		obs.Int("workers", pool.Workers()))
	defer run.End()

	// The run order is fixed before any evaluation starts: dataset i fills
	// results[i] and its cells land in pre-assigned Cells slots, so the
	// output ordering is identical to the serial engine at any worker
	// count. Each dataset is generated exactly once and shared read-only
	// by all of its cells (algorithms never mutate instance storage).
	type dsResult struct {
		profile core.Profile
		freq    time.Duration
		length  int
	}
	slotBase := make([]int, len(specs))
	for i := range specs {
		if i > 0 {
			slotBase[i] = slotBase[i-1] + len(plans[i-1])
		}
		res.Datasets = append(res.Datasets, specs[i].Name)
	}
	cells := make([]Cell, totalCells)
	dsResults := make([]dsResult, len(specs))

	runStart := time.Now()
	var completed atomic.Int64
	var progressMu sync.Mutex // orders progress lines and checkpoint records
	var abort atomic.Bool     // FailFast only: stop scheduling, cancel in-flight folds
	var errMu sync.Mutex
	firstErr := struct {
		slot int
		err  error
	}{slot: totalCells}

	// recordErr keeps the error of the lowest-numbered failing cell — the
	// one the serial engine would have hit first — and stops the run
	// (FailFast only). Fold-level cancellations of in-flight cells surface
	// as core.ErrCancelled; callers filter those out so the triggering
	// failure, not a lower-slot victim of its cancellation, is reported.
	recordErr := func(slot int, err error) {
		errMu.Lock()
		if slot < firstErr.slot {
			firstErr.slot = slot
			firstErr.err = err
		}
		errMu.Unlock()
		abort.Store(true)
	}

	// finish publishes one completed cell: journal record, checkpoint
	// line, progress line and counters. The mutex keeps progress lines
	// whole and checkpoint records unfragmented when many cells finish at
	// once; the completion counter is atomic (eta reads it via its
	// argument; the journal carries it per record).
	finish := func(cell Cell, key string, cellDur time.Duration, resumed bool) {
		progressMu.Lock()
		n := int(completed.Add(1))
		rec := map[string]any{
			"dataset":     cell.Dataset,
			"algorithm":   cell.Algorithm,
			"status":      string(cell.Status),
			"attempts":    cell.Attempts,
			"resumed":     resumed,
			"key":         key,
			"accuracy":    cell.Result.Accuracy,
			"macro_f1":    cell.Result.MacroF1,
			"earliness":   cell.Result.Earliness,
			"harmonic":    cell.Result.HarmonicMean,
			"train_ms":    float64(cell.Result.TrainTime) / float64(time.Millisecond),
			"test_ms":     float64(cell.Result.TestTime) / float64(time.Millisecond),
			"num_test":    cell.Result.NumTest,
			"timed_out":   cell.Result.TimedOut,
			"batch_len":   cell.BatchLen,
			"cell_ms":     float64(cellDur) / float64(time.Millisecond),
			"completed":   n,
			"total_cells": totalCells,
		}
		if cell.Err != "" {
			rec["err"] = cell.Err
		}
		cfg.Obs.Emit("cell", rec)
		if cfg.Checkpoint != nil {
			// Resumed cells are re-recorded too, so the new checkpoint
			// file is self-contained rather than a delta over its parent.
			line, err := json.Marshal(CheckpointRecord{
				Type: "cell", Key: key,
				Dataset: cell.Dataset, Algorithm: cell.Algorithm,
				Status: cell.Status, Err: cell.Err, Attempts: cell.Attempts,
				BatchLen: cell.BatchLen, Result: cell.Result,
			})
			if err == nil {
				cfg.Checkpoint.Write(append(line, '\n'))
			}
		}
		if cfg.Progress != nil {
			switch {
			case resumed:
				fmt.Fprintf(cfg.Progress, "[%d/%d] %s/%s resumed from checkpoint (%s)\n",
					n, totalCells, cell.Dataset, cell.Algorithm, cell.Status)
			case cell.Status == StatusOK || cell.Status == StatusTimedOut:
				fmt.Fprintf(cfg.Progress, "[%d/%d] %s (cell %s, ETA %s)\n",
					n, totalCells, cell.Result.String(),
					roundDuration(cellDur), eta(runStart, n, totalCells))
			default:
				fmt.Fprintf(cfg.Progress, "[%d/%d] DNF %s/%s (%s after %d attempt(s): %s)\n",
					n, totalCells, cell.Dataset, cell.Algorithm,
					cell.Status, cell.Attempts, cell.Err)
			}
		}
		progressMu.Unlock()
		reg := cfg.Obs.Registry()
		reg.Counter("etsc_cells_total",
			"Completed dataset × algorithm cells.").Inc()
		if cell.Status == StatusTimedOut {
			reg.Counter("etsc_train_timeouts_total",
				"Cells disqualified by the training budget.").Inc()
		}
		switch cell.Status {
		case StatusFailed, StatusPanicked, StatusSkipped:
			reg.Counter("etsc_cells_failed_total",
				"Cells that did not finish: failed, panicked or skipped.").Inc()
		}
		if resumed {
			reg.Counter("etsc_cells_resumed_total",
				"Cells filled from a resume checkpoint instead of re-executed.").Inc()
		}
	}

	pool.ForEach(len(specs), func(i int) {
		if abort.Load() {
			return
		}
		spec := specs[i]
		dspan := run.Start("dataset", obs.String("name", spec.Name))
		defer dspan.End()
		var d *ts.Dataset
		// Dataset preparation runs under panic isolation: a generator bug
		// must cost one dataset column, not the whole matrix.
		prepErr := sched.Protect(func() error {
			gspan := dspan.Start("generate")
			d = spec.Generate(cfg.Scale, cfg.Seed)
			gspan.End()
			// Repair any missing values (the framework's Section 5.1
			// rule); varying-length instances are handled by the
			// algorithms themselves.
			ispan := dspan.Start("interpolate")
			d.Interpolate()
			ispan.End()
			// Category flags always come from the paper-size
			// characteristics: a scaled run must still aggregate LSST
			// under "Large" even when only a fraction of its instances is
			// evaluated. Generation is cheap relative to evaluation.
			if cfg.Scale < 1 {
				dsResults[i].profile = core.Categorize(spec.Generate(1, cfg.Seed))
			} else {
				dsResults[i].profile = core.Categorize(d)
			}
			dsResults[i].freq = d.Freq
			dsResults[i].length = d.MaxLength()
			return nil
		})
		if prepErr != nil {
			var pe *sched.PanicError
			if errors.As(prepErr, &pe) {
				dspan.Event("panic", obs.String("value", fmt.Sprint(pe.Value)),
					obs.String("stack", string(pe.Stack)))
			}
			prepErr = fmt.Errorf("bench: preparing %s: %w", spec.Name, prepErr)
			if cfg.FailFast {
				recordErr(slotBase[i], prepErr)
				return
			}
			// Every cell of the dataset is skipped, not silently absent:
			// the matrix keeps its shape and the report renders the
			// column as DNF.
			for j := range plans[i] {
				cell := Cell{
					Dataset:   spec.Name,
					Algorithm: plans[i][j].Name,
					Status:    StatusSkipped,
					Err:       prepErr.Error(),
				}
				cells[slotBase[i]+j] = cell
				finish(cell, CheckpointKey(cfg, spec.Name, plans[i][j].Name), 0, false)
			}
			return
		}

		pool.ForEach(len(plans[i]), func(j int) {
			if abort.Load() {
				return
			}
			f := plans[i][j]
			slot := slotBase[i] + j
			key := CheckpointKey(cfg, spec.Name, f.Name)
			if rec, ok := cfg.Resume[key]; ok && rec.Resumable() {
				cell := rec.cell()
				cells[slot] = cell
				finish(cell, key, 0, true)
				return
			}
			aspan := dspan.Start("algorithm",
				obs.String("name", f.Name), obs.String("dataset", spec.Name))
			cellStart := time.Now()
			maxAttempts := cfg.Retry.attempts()
			if cfg.FailFast {
				maxAttempts = 1
			}
			var avg metrics.Result
			var evalErr error
			attempts := 0
			for attempt := 0; attempt < maxAttempts; attempt++ {
				if attempt > 0 {
					if delay := cfg.Retry.delay(attempt); delay > 0 {
						time.Sleep(delay)
					}
					aspan.Event("retry",
						obs.Int("attempt", attempt),
						obs.String("error", evalErr.Error()))
					cfg.Obs.Registry().Counter("etsc_cell_retries_total",
						"Cell re-executions triggered by the retry policy.").Inc()
				}
				attempts++
				evalCfg := core.EvalConfig{
					Folds:       cfg.Folds,
					Seed:        cfg.Seed, // same seed every attempt: a retry re-runs, never re-rolls
					TrainBudget: cfg.TrainBudget,
					Obs:         aspan,
					Pool:        pool,
				}
				if cfg.FailFast {
					evalCfg.Cancelled = abort.Load
				}
				if cfg.WrapFoldFactory != nil {
					a := attempt
					evalCfg.WrapFoldFactory = func(fold int, inner core.Factory) core.Factory {
						return cfg.WrapFoldFactory(spec.Name, f.Name, a, fold, inner)
					}
				}
				avg, _, evalErr = core.Evaluate(f.New, d, evalCfg)
				if evalErr == nil || errors.Is(evalErr, core.ErrCancelled) {
					break
				}
				var pe *sched.PanicError
				if errors.As(evalErr, &pe) {
					cfg.Obs.Registry().Counter("etsc_cell_panics_total",
						"Evaluation attempts that panicked and were isolated.").Inc()
				}
			}
			cellDur := time.Since(cellStart)
			cell := Cell{
				Dataset:   spec.Name,
				Algorithm: f.Name,
				Attempts:  attempts,
			}
			switch {
			case evalErr == nil && avg.TimedOut:
				cell.Status = StatusTimedOut
				cell.Result = avg
				cell.BatchLen = f.BatchLen(d.MaxLength())
			case evalErr == nil:
				cell.Status = StatusOK
				cell.Result = avg
				cell.BatchLen = f.BatchLen(d.MaxLength())
			default:
				var pe *sched.PanicError
				if errors.As(evalErr, &pe) {
					cell.Status = StatusPanicked
				} else {
					cell.Status = StatusFailed
				}
				cell.Err = evalErr.Error()
			}
			aspan.SetAttr(obs.Bool("timed_out", avg.TimedOut))
			aspan.SetAttr(obs.String("status", string(cell.Status)))
			if evalErr != nil {
				aspan.Event("error",
					obs.String("error", evalErr.Error()),
					obs.Int("attempts", attempts))
			}
			aspan.End()
			if evalErr != nil && cfg.FailFast {
				if !errors.Is(evalErr, core.ErrCancelled) {
					recordErr(slot, fmt.Errorf("bench: %s on %s: %w", f.Name, spec.Name, evalErr))
				}
				return
			}
			cells[slot] = cell
			finish(cell, key, cellDur, false)
		})
	})

	if cfg.FailFast && firstErr.err != nil {
		return nil, firstErr.err
	}
	res.Cells = cells
	for i := range specs {
		res.Profiles[specs[i].Name] = dsResults[i].profile
		res.Freq[specs[i].Name] = dsResults[i].freq
		res.Length[specs[i].Name] = dsResults[i].length
	}
	res.buildIndex()
	return res, nil
}

// eta projects the remaining wall time from the average completed-cell
// duration — the same data the journal's cell records carry.
func eta(start time.Time, completed, total int) string {
	if completed <= 0 || completed >= total {
		return "0s"
	}
	perCell := time.Since(start) / time.Duration(completed)
	return roundDuration(perCell * time.Duration(total-completed)).String()
}

func roundDuration(d time.Duration) time.Duration {
	switch {
	case d >= time.Minute:
		return d.Round(time.Second)
	case d >= time.Second:
		return d.Round(10 * time.Millisecond)
	default:
		return d.Round(time.Millisecond)
	}
}

// Get returns the cell for one dataset × algorithm pair in O(1).
// Results produced by Run carry a prebuilt index; hand-assembled Results
// (decoded JSON, test fixtures) build it once on the first Get, turning
// what was a linear scan per lookup into a single O(cells) pass.
func (r *Results) Get(dataset, algorithm string) (Cell, bool) {
	if r.index == nil {
		r.buildIndex()
	}
	i, ok := r.index[cellKey{dataset, algorithm}]
	if !ok {
		return Cell{}, false
	}
	return r.Cells[i], true
}

// CategoryAverage aggregates one metric over all datasets carrying the
// category flag; DNF cells (timed out, failed, panicked, skipped) are
// excluded; NaN when nothing qualified.
func (r *Results) CategoryAverage(cat core.Category, algorithm string, metric func(metrics.Result) float64) float64 {
	var sum float64
	n := 0
	for _, c := range r.Cells {
		if c.Algorithm != algorithm || c.DNF() {
			continue
		}
		if !r.Profiles[c.Dataset].In(cat) {
			continue
		}
		sum += metric(c.Result)
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// StatusCounts tallies cells by status; the zero status (hand-assembled
// Results) counts as ok.
func (r *Results) StatusCounts() map[CellStatus]int {
	out := map[CellStatus]int{}
	for _, c := range r.Cells {
		s := c.Status
		if s == "" {
			s = StatusOK
			if c.Result.TimedOut {
				s = StatusTimedOut
			}
		}
		out[s]++
	}
	return out
}

// DNFCells returns the cells that did not finish, in matrix order.
func (r *Results) DNFCells() []Cell {
	var out []Cell
	for _, c := range r.Cells {
		if c.DNF() {
			out = append(out, c)
		}
	}
	return out
}

// Categories lists the categories realized by the run's datasets, in the
// paper's column order.
func (r *Results) Categories() []core.Category {
	var out []core.Category
	for _, cat := range core.AllCategories {
		for _, p := range r.Profiles {
			if p.In(cat) {
				out = append(out, cat)
				break
			}
		}
	}
	return out
}
