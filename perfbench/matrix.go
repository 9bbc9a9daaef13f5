package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/goetsc/goetsc/internal/bench"
	"github.com/goetsc/goetsc/internal/core"
	"github.com/goetsc/goetsc/internal/datasets"
)

// The matrix workload is the paper's own evaluation: every algorithm on
// datasets spanning uni/multivariate, multiclass and imbalanced data,
// through bench.Run. Wide datasets are left out (HouseTwenty's ECEC fit
// alone outlasts a run).
//
// The gated passes run the serial engine (one worker), so CPU per fold
// measures the algorithms, not two workers contending for a 2-vCPU
// host's core pair: back to back on two seeds, five runs read 532k–607k
// µs per fold at one worker per CPU and 509k–562k at one. The traced
// run adds one pass at one worker per CPU for the scheduler layer.
var matrixDatasets = []string{"PowerCons", "BasicMotions", "DodgerLoopDay", "Biological"}

const (
	matrixScale = 0.1
	matrixFolds = 2
)

// matrixPass is one complete bench.Run.
type matrixPass struct {
	res  *bench.Results
	iv   interval
	fold int // folds evaluated
}

// matrixRun runs the whole matrix once with the given worker count.
func matrixRun(seed int64, workers int) (matrixPass, error) {
	m := startMeter()
	res, err := bench.Run(bench.RunConfig{
		Datasets: matrixDatasets, Scale: matrixScale, Folds: matrixFolds,
		Seed: seed, Preset: bench.Fast, Workers: workers,
	})
	iv := m.stop()
	if err != nil {
		return matrixPass{}, fmt.Errorf("bench.Run: %w", err)
	}
	return matrixPass{res: res, iv: iv, fold: len(res.Cells) * matrixFolds}, nil
}

func runMatrix(cfg config) (*report, error) {
	rep := newReport()

	// Set-up is the dataset preparation bench.Run performs before a
	// dataset's cells start, timed on its own: generate at the run's
	// scale, repair missing values, and categorize the paper-size data.
	var gens []time.Duration
	setup, err := setupCPU(func() error {
		t0 := time.Now()
		for _, name := range matrixDatasets {
			spec, err := datasets.ByName(name)
			if err != nil {
				return err
			}
			d := spec.Generate(matrixScale, cfg.seed)
			if d.Len() == 0 {
				return fmt.Errorf("dataset %s generated no instances", name)
			}
			d.Interpolate()
			core.Categorize(spec.Generate(1, cfg.seed))
		}
		gens = append(gens, time.Since(t0))
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Whole passes only, so every pass evaluates the same folds; a pass
	// starts only if it is expected to end inside the run.
	var passes []matrixPass
	start := time.Now()
	for {
		p, err := matrixRun(cfg.seed, 1)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		if time.Since(start)+p.iv.wall > cfg.seconds {
			break
		}
	}
	// The traced run adds one pass at one worker per CPU, checked
	// against the serial passes like any other pass.
	var parallel matrixPass
	if cfg.trace {
		if parallel, err = matrixRun(cfg.seed, runtime.NumCPU()); err != nil {
			return nil, err
		}
		checkMatrix(rep, append(passes, parallel))
	} else {
		checkMatrix(rep, passes)
	}

	var cpuPerOp, opsPerS, testPer, foldP50, hm []float64
	for _, p := range passes {
		cpuPerOp = append(cpuPerOp, us(p.iv.cpu)/float64(p.fold))
		opsPerS = append(opsPerS, float64(p.fold)/p.iv.wall.Seconds())
		var testTime time.Duration
		var numTest int
		var perFold []time.Duration
		var hmSum float64
		for _, c := range p.res.Cells {
			testTime += c.Result.TestTime
			numTest += c.Result.NumTest
			perFold = append(perFold, c.Result.TrainTime+c.Result.TestTime)
			hmSum += c.Result.HarmonicMean
		}
		testPer = append(testPer, us(testTime)/float64(numTest))
		foldP50 = append(foldP50, ms(medianDuration(perFold)))
		hm = append(hm, hmSum/float64(len(p.res.Cells)))
	}

	rep.wall["ops_per_s"], rep.wall["fold_p50_ms"] = median(opsPerS), median(foldP50)
	if !cfg.trace {
		rep.metrics["setup_s"] = setup.Seconds()
		rep.metrics["cpu_us_per_op"] = median(cpuPerOp)
		rep.metrics["hm_mean"] = median(hm)
		return rep, nil
	}

	// Per-layer: the algorithm layer's own Fit and test timings, as
	// bench.Run reports them per cell (no wrapping, so the traced run
	// executes exactly the untraced code and trace.overhead_share is 0).
	for _, a := range bench.AlgorithmNames() {
		var fits []float64
		var testTime time.Duration
		var numTest int
		for _, p := range passes {
			var fit time.Duration
			for _, c := range p.res.Cells {
				if c.Algorithm == a {
					fit += c.Result.TrainTime
					testTime += c.Result.TestTime
					numTest += c.Result.NumTest
				}
			}
			fits = append(fits, ms(fit)/float64(len(matrixDatasets)))
		}
		rep.metrics["algo."+a+".fit_ms"] = median(fits)
		if numTest > 0 {
			rep.metrics["algo."+a+".test_us"] = us(testTime) / float64(numTest)
		}
	}
	rep.metrics["test_us_per_instance"] = median(testPer)
	rep.metrics["bench.fold_p50_ms"] = median(foldP50)
	rep.metrics["sched.busy_share"] = parallel.iv.cpu.Seconds() / (parallel.iv.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	rep.metrics["datasets.generate_ms"] = ms(medianDuration(gens))
	rep.metrics["loadgen.ops_per_s"] = float64(parallel.fold) / parallel.iv.wall.Seconds()
	rep.metrics["trace.overhead_share"] = 0
	return rep, nil
}

// checkMatrix counts every fold of a DNF cell as failed, and every fold
// of a cell whose scores differ from the first pass's: the engine
// promises identical results on every run of one seed.
func checkMatrix(rep *report, passes []matrixPass) {
	first := passes[0].res
	for k, p := range passes {
		rep.attempted += int64(p.fold)
		for i, c := range p.res.Cells {
			if c.DNF() {
				rep.fail(matrixFolds, "pass %d: %s on %s did not finish: %s %s", k, c.Algorithm, c.Dataset, c.Status, c.Err)
				continue
			}
			want := first.Cells[i].Result
			got := c.Result
			if got.Accuracy != want.Accuracy || got.MacroF1 != want.MacroF1 ||
				got.Earliness != want.Earliness || got.NumTest != want.NumTest {
				rep.fail(matrixFolds, "pass %d: %s on %s scored differently from pass 0", k, c.Algorithm, c.Dataset)
			}
		}
	}
}
