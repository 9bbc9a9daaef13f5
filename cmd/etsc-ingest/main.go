// Command etsc-ingest runs the continuous-ingest pipeline standalone:
// it loads a trained model into an in-process registry, consumes an
// entity-keyed NDJSON event stream (a file, stdin, or a built-in
// deterministic source), and writes one NDJSON decision line per
// classified window to stdout, with a JSON summary on stderr when the
// stream ends. With drift detection and retraining enabled, the whole
// online-adaptation loop — window, classify, detect, retrain, hot-swap
// — runs inside this one process.
//
// Usage examples:
//
//	etsc-run -algorithm ECEC -dataset Maritime -save-model ecec.goetsc
//	etsc-ingest -model ecec.goetsc -source maritime -scale 0.05
//	etsc-ingest -model ecec.goetsc -events stream.ndjson \
//	  -drift-cov 0.25 -retrain ECEC
//	cat stream.ndjson | etsc-ingest -model ecec.goetsc -events -
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/goetsc/goetsc/internal/bench"
	"github.com/goetsc/goetsc/internal/core"
	"github.com/goetsc/goetsc/internal/datasets"
	"github.com/goetsc/goetsc/internal/ingest"
	"github.com/goetsc/goetsc/internal/obs"
	"github.com/goetsc/goetsc/internal/serve"
	"github.com/goetsc/goetsc/internal/synth"
	ts "github.com/goetsc/goetsc/internal/timeseries"
)

func main() {
	var (
		modelFile  = flag.String("model", "", "saved model file (*.goetsc) to classify with (required)")
		events     = flag.String("events", "", `NDJSON event stream to consume ("-" for stdin)`)
		source     = flag.String("source", "", "built-in stream instead of -events: maritime (vessel simulator) or drift (synthetic regime change halfway)")
		scale      = flag.Float64("scale", 0.05, "built-in source size scale")
		seed       = flag.Int64("seed", 42, "built-in source seed (same seed = same stream)")
		cohort     = flag.Int("cohort", 8, "concurrently interleaved entities in built-in sources")
		shards     = flag.Int("shards", 1, "entity demux shards (1 = deterministic ordering)")
		window     = flag.Int("window", 0, "tumbling window length in points (0 = model training length)")
		ttl        = flag.Duration("ttl", 10*time.Minute, "idle entities older than this are evicted")
		driftCoV   = flag.Float64("drift-cov", 0, "relative CoV shift vs reference that trips the drift detector (0 disables)")
		driftCIR   = flag.Float64("drift-cir", 0, "relative class-imbalance shift that trips the drift detector (0 disables)")
		driftWin   = flag.Int("drift-windows", 32, "rolling-profile width in completed windows")
		driftMin   = flag.Int("drift-min", 0, "windows before the detector first evaluates (0 = drift-windows); the first profile becomes the reference")
		retrain    = flag.String("retrain", "", "algorithm to retrain on drift (e.g. ECEC); empty logs trips without retraining")
		retrainMin = flag.Int("retrain-min", 8, "labeled windows required before a retrain runs")
	)
	var obsFlags obs.Flags
	obsFlags.Register(flag.CommandLine)
	flag.Parse()
	if *modelFile == "" {
		fail(fmt.Errorf("-model is required"))
	}
	if (*events == "") == (*source == "") {
		fail(fmt.Errorf("exactly one of -events or -source is required"))
	}

	col, obsCleanup, err := obsFlags.Start()
	if err != nil {
		fail(err)
	}
	defer obsCleanup()

	// The in-process registry: the same versioned model store etsc-serve
	// uses, so retrain swaps follow the identical hot-reload path.
	srv := serve.New(serve.Config{Obs: col})
	name, err := srv.LoadFile(*modelFile)
	if err != nil {
		failWith(obsCleanup, err)
	}
	fmt.Fprintf(os.Stderr, "etsc-ingest: loaded model %s from %s\n", name, *modelFile)

	cfg := ingest.Config{
		Registry: srv, Model: name, Shards: *shards,
		WindowLength: *window, EntityTTL: *ttl, Obs: col,
	}
	if *driftCoV > 0 || *driftCIR > 0 {
		cfg.Drift = &ingest.DriftConfig{
			Windows: *driftWin, MinWindows: *driftMin,
			CoVJump: *driftCoV, CIRJump: *driftCIR,
		}
	}
	if *retrain != "" {
		algoName, trainSeed := *retrain, *seed
		cfg.Retrain = &ingest.RetrainConfig{
			MinInstances: *retrainMin,
			Fit: func(train *ts.Dataset) (core.EarlyClassifier, error) {
				fs := bench.AlgorithmsByName(train.Name, bench.Fast, trainSeed, []string{algoName})
				if len(fs) == 0 {
					return nil, fmt.Errorf("unknown retrain algorithm %q", algoName)
				}
				algo := core.WrapForDataset(fs[0].New, train)
				if err := algo.Fit(train); err != nil {
					return nil, err
				}
				return algo, nil
			},
		}
	}

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	enc := json.NewEncoder(out)
	cfg.OnDecision = func(d ingest.Decision) { enc.Encode(d) }

	p, err := ingest.New(cfg)
	if err != nil {
		failWith(obsCleanup, err)
	}

	if *source != "" {
		err = replayBuiltin(p, *source, *scale, *seed, *cohort)
	} else {
		err = replayNDJSON(p, *events)
	}
	if err != nil {
		p.Close()
		failWith(obsCleanup, err)
	}
	p.Flush()
	stats := p.Stats()
	p.Close()
	out.Flush()
	b, _ := json.Marshal(stats)
	fmt.Fprintf(os.Stderr, "etsc-ingest: %s\n", b)
	col.Emit("ingest_run", map[string]any{
		"model": name, "events": stats.Events, "decisions": stats.Decisions,
		"drift_trips": stats.DriftTrips, "retrains": stats.Retrains, "swaps": stats.Swaps,
	})
}

// replayBuiltin feeds one of the deterministic synthetic streams.
func replayBuiltin(p *ingest.Pipeline, source string, scale float64, seed int64, cohort int) error {
	var events []ingest.Event
	switch source {
	case "maritime":
		events = datasets.MaritimeEvents(scale, seed, cohort)
	case "drift":
		// A regime change halfway through: the stream opens on regime 0
		// (what the model presumably trained on) and switches to regime 1,
		// which rotates the class shapes and rescales the signal — the
		// detector's and retrainer's canonical workload.
		height := int(120 * scale * 10)
		if height < 24 {
			height = 24
		}
		a := synth.RegimeDataset("drift", 1, 2, height, 30, seed, 0)
		b := synth.RegimeDataset("drift", 1, 2, height, 30, seed+1, 1)
		events = append(ingest.InterleaveInstances(a, "pre", cohort),
			ingest.InterleaveInstances(b, "post", cohort)...)
	default:
		return fmt.Errorf("unknown -source %q (want maritime or drift)", source)
	}
	for _, ev := range events {
		if err := p.Submit(ev); err != nil {
			return err
		}
	}
	return nil
}

// replayNDJSON feeds an NDJSON event file ("-" reads stdin). Damaged
// lines are skipped, matching the HTTP handler's tolerance.
func replayNDJSON(p *ingest.Pipeline, path string) error {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev ingest.Event
		if err := ingest.DecodeEvent(line, &ev); err != nil {
			continue
		}
		if err := p.Submit(ev); err != nil {
			return err
		}
	}
	return sc.Err()
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "etsc-ingest: %v\n", err)
	os.Exit(1)
}

// failWith flushes observability sinks before exiting so a failed run
// still leaves a complete journal.
func failWith(cleanup func(), err error) {
	fmt.Fprintf(os.Stderr, "etsc-ingest: %v\n", err)
	cleanup()
	os.Exit(1)
}
