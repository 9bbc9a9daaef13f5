// Command perfbench is the repository's benchmark: one command that runs
// a named workload against the framework's public packages, checks every
// output it produces, and prints its metrics as one JSON line.
//
//	bash perfbench/run.sh --workload matrix --seed 1 --seconds 35 --trace 0
//
// Workloads: matrix (the paper's evaluation matrix through bench.Run),
// serve (a two-replica fleet over loopback HTTP) and ingest (a drifting
// NDJSON stream through /v1/ingest). With --trace 0 the run prints the
// gated end-to-end metrics; with --trace 1 it prints the per-layer
// metrics instead. NOTES.md explains every metric and why it exists.
//
// The last line of standard output is
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// A host stamp (CPU count, GOMAXPROCS, Go version, commit, steal share,
// and the run's ungated wall-clock rate and median latency) goes to
// standard error. Any wrong output sets correct to false and
// the exit code to 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// report is what a workload hands back: attempted and failed operation
// counts, the metric values by name, and descriptions of the first few
// wrong outputs.
type report struct {
	attempted, failed int64
	metrics           map[string]float64
	wall              map[string]float64 // wall-clock figures for the stamp, never gated
	wrong             []string
}

func newReport() *report { return &report{metrics: map[string]float64{}, wall: map[string]float64{}} }

// fail records n failed operations with a reason (the first few reasons
// are printed to standard error).
func (r *report) fail(n int64, format string, args ...any) {
	r.failed += n
	if len(r.wrong) < 8 {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	}
}

// errorShare is (errors + shed + parity mismatches + DNF) / attempted.
func (r *report) errorShare() float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

var workloads = map[string]func(config) (*report, error){
	"matrix": runMatrix,
	"serve":  runServe,
	"ingest": runIngest,
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: matrix, serve or ingest")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&seconds, "seconds", 35, "measurement length in seconds")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics instead of end-to-end ones")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1

	run, ok := workloads[cfg.workload]
	if !ok || seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload matrix|serve|ingest, --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	host0, _ := readHostCPU()
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	steal := -1.0
	if host1, err := readHostCPU(); err == nil && host0.valid {
		steal = host1.stealShareSince(host0)
	}
	stamp(cfg, steal, rep.wall)
	if cfg.trace {
		rep.metrics["host.steal_share"] = math.Max(steal, 0)
		rep.metrics["host.num_cpu"] = float64(runtime.NumCPU())
		rep.metrics["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
		rep.metrics["error_share"] = rep.errorShare()
	} else {
		rep.metrics["ok_share"] = 1 - rep.errorShare()
	}
	for _, w := range rep.wrong {
		fmt.Fprintf(os.Stderr, "perfbench: wrong output: %s\n", w)
	}
	out, err := render(rep, cfg.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if rep.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed\n", rep.failed, rep.attempted)
		os.Exit(1)
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// render builds the result line from exactly the catalogue's metrics for
// the mode. A per-layer metric the workload never touches reads 0; an
// end-to-end metric the workload did not produce is a benchmark bug.
func render(rep *report, traced bool) ([]byte, error) {
	defs := endToEnd
	if traced {
		defs = perLayer()
	}
	out := output{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok && !traced {
			return nil, fmt.Errorf("workload did not produce end-to-end metric %s", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.name)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	return json.Marshal(out)
}

// stamp writes the host and build facts a noisy run is explained by.
func stamp(cfg config, steal float64, wall map[string]float64) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	b, _ := json.Marshal(map[string]any{
		"stamp": map[string]any{
			"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds.Seconds(), "trace": cfg.trace,
			"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"go": runtime.Version(), "commit": commit, "host_steal_share": steal,
			"wall": wall,
		},
	})
	fmt.Fprintln(os.Stderr, string(b))
}
