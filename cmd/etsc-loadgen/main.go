// Command etsc-loadgen replays a dataset's held-out split against a
// running etsc-serve instance, reporting latency percentiles and
// throughput, and (given the same model file the server loaded) checking
// that every served decision matches the offline classifier.
//
// Usage examples:
//
//	etsc-run -algorithm ECEC -dataset PowerCons -save-model ecec.goetsc
//	etsc-serve -models ecec.goetsc &
//	etsc-loadgen -addr http://127.0.0.1:8080 -model ecec -dataset PowerCons \
//	  -model-file ecec.goetsc -rps 50 -clients 4
//	etsc-loadgen -addr http://127.0.0.1:8080 -model ecec -dataset PowerCons \
//	  -mode session -chunk 8 -json latency.json
//	etsc-serve -models ecec.goetsc -journal server.jsonl &
//	etsc-loadgen -addr http://127.0.0.1:8080 -model ecec -dataset PowerCons \
//	  -server-journal server.jsonl
//
// The replayed instances are the same deterministic holdout split
// etsc-run -save-model evaluated on, so the parity check compares
// like with like.
//
// Every request carries an X-Etsc-Trace header; pointing -server-journal
// at the journal file the server is writing prints a trace-correlation
// report after the run — per-conversation client wall time joined
// against the server's access records, separating server latency from
// transport and client overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"github.com/goetsc/goetsc/internal/datasets"
	"github.com/goetsc/goetsc/internal/ingest"
	"github.com/goetsc/goetsc/internal/loadgen"
	"github.com/goetsc/goetsc/internal/obs"
	"github.com/goetsc/goetsc/internal/persist"
	ts "github.com/goetsc/goetsc/internal/timeseries"
)

func main() {
	var (
		addr          = flag.String("addr", "http://127.0.0.1:8080", "server base URL")
		model         = flag.String("model", "", "served model name (required)")
		datasetName   = flag.String("dataset", "PowerCons", "dataset to replay")
		scale         = flag.Float64("scale", 0.25, "dataset height scale in (0,1]")
		folds         = flag.Int("folds", 5, "fold count used when the model was saved (fixes the holdout split)")
		seed          = flag.Int64("seed", 42, "random seed used when the model was saved")
		rps           = flag.Float64("rps", 0, "target request rate (0 = unpaced)")
		clients       = flag.Int("clients", 4, "concurrent client workers")
		total         = flag.Int("n", 0, "requests to send (0 = one per holdout instance)")
		mode          = flag.String("mode", "classify", "request mode: classify or session")
		chunk         = flag.Int("chunk", 8, "points per request in session mode")
		timeout       = flag.Duration("timeout", 30*time.Second, "per-request timeout")
		modelFile     = flag.String("model-file", "", "saved model file for offline parity checking")
		jsonOut       = flag.String("json", "", "write the result as JSON to this file")
		serverJournal = flag.String("server-journal", "", "server journal file (etsc-serve -journal) to correlate traces against after the run")
		traces        = flag.Bool("traces", false, "keep per-conversation trace records in the JSON result")
		overload      = flag.Bool("overload", false, "drive past capacity: unpaced, many clients; 429/503 sheds are expected and reported as goodput vs shed rate instead of failing the run")
		tenant        = flag.String("tenant", "", "X-Etsc-Tenant header attributing the load to one tenant's quota")
		ingestMode    = flag.Bool("ingest", false, "replay the dataset as one interleaved entity event stream against POST /v1/ingest (etsc-serve -ingest), reporting decision latency and entity churn")
		eps           = flag.Float64("eps", 0, "target events/sec in -ingest mode (0 = unpaced)")
		cohort        = flag.Int("cohort", 8, "concurrently interleaved entities in -ingest mode")
		churnMode     = flag.Bool("churn", false, "fleet churn mode: hold -sessions streaming sessions live concurrently and keep turning them over (create/advance/evict mix), reporting per-phase latency and session throughput")
		sessions      = flag.Int("sessions", 1000, "concurrent live sessions in -churn mode")
		churnTotal    = flag.Int("churn-total", 0, "sessions to run to completion in -churn mode (default 2x -sessions)")
		abandonEvery  = flag.Int("abandon-every", 5, "every k-th -churn session is abandoned halfway through its stream (0 = stream all to a decision)")
	)
	var obsFlags obs.Flags
	obsFlags.Register(flag.CommandLine)
	flag.Parse()
	if *model == "" {
		fail(fmt.Errorf("-model is required"))
	}

	col, obsCleanup, err := obsFlags.Start()
	if err != nil {
		fail(err)
	}
	defer obsCleanup()

	spec, err := datasets.ByName(*datasetName)
	if err != nil {
		fail(err)
	}
	d := spec.Generate(*scale, *seed)
	d.Interpolate()

	if *ingestMode {
		runIngestMode(col, obsCleanup, d, *addr, *model, *eps, *cohort, *jsonOut)
		return
	}

	test, err := holdoutTest(d, *folds, *seed)
	if err != nil {
		fail(err)
	}
	fmt.Printf("replaying %d holdout instances of %s\n", test.Len(), d.Name)

	instances := make([][][]float64, 0, test.Len())
	for _, in := range test.Instances {
		instances = append(instances, in.Values)
	}

	var refs []loadgen.Reference
	if *modelFile != "" {
		offline, meta, err := persist.LoadFile(*modelFile)
		if err != nil {
			fail(err)
		}
		if meta.Dataset != "" && meta.Dataset != spec.Name {
			fail(fmt.Errorf("model %s was trained on dataset %q, not %q", *modelFile, meta.Dataset, spec.Name))
		}
		for _, in := range test.Instances {
			label, consumed := offline.Classify(in)
			if consumed > in.Length() {
				consumed = in.Length()
			}
			refs = append(refs, loadgen.Reference{Label: label, Consumed: consumed})
		}
		fmt.Printf("parity reference: %s from %s\n", offline.Name(), *modelFile)
	}

	if *churnMode {
		runChurnMode(col, obsCleanup, instances, refs, churnOptions{
			addr: *addr, model: *model, sessions: *sessions, total: *churnTotal,
			chunk: *chunk, clients: *clients, abandonEvery: *abandonEvery,
			timeout: *timeout, tenant: *tenant, jsonOut: *jsonOut,
		})
		return
	}

	runRPS, runClients, runTotal := *rps, *clients, *total
	if *overload {
		// Past capacity on purpose: unpaced, a big client pool, several
		// passes over the holdout so the shed/goodput split stabilizes.
		runRPS = 0
		if runClients < 32 {
			runClients = 32
		}
		if runTotal <= 0 {
			runTotal = 4 * len(instances)
		}
		// Parity references stay on: every *admitted* answer must still
		// match the offline classifier, shedding must not corrupt results.
	}

	res, err := loadgen.Run(loadgen.Config{
		BaseURL: *addr, Model: *model,
		Instances: instances, References: refs,
		RPS: runRPS, Clients: runClients, Total: runTotal,
		Mode: loadgen.Mode(*mode), ChunkSize: *chunk, Timeout: *timeout,
		CollectTraces: *traces || *serverJournal != "",
		Tenant:        *tenant,
	})
	if err != nil {
		fail(err)
	}
	fmt.Println(res)
	if *overload {
		fmt.Printf("overload summary: goodput %.1f req/s vs %d shed (%.1f%%), admitted p99 %s\n",
			res.Goodput, res.Shed, res.ShedRate*100, res.P99.Round(time.Microsecond))
	}
	col.Emit("loadgen_result", map[string]any{
		"mode": string(res.Mode), "sent": res.Sent, "errors": res.Errors,
		"shed": res.Shed, "shed_rate": res.ShedRate, "goodput_rps": res.Goodput,
		"p50_ms":         float64(res.P50) / float64(time.Millisecond),
		"p99_ms":         float64(res.P99) / float64(time.Millisecond),
		"throughput_rps": res.Throughput,
		"parity_checked": res.ParityChecked, "parity_mismatches": res.ParityMismatches,
	})

	if *serverJournal != "" {
		corr, err := loadgen.CorrelateFile(res, *serverJournal)
		if err != nil {
			failWith(obsCleanup, err)
		}
		fmt.Println(corr)
		col.Emit("trace_correlation", map[string]any{
			"client_traces": corr.ClientTraces, "matched": corr.Matched,
			"unmatched": corr.Unmatched, "server_records": corr.ServerRecords,
			"overhead_mean_ms": float64(corr.OverheadMean) / float64(time.Millisecond),
		})
	}
	if !*traces {
		res.Traces = nil // collected only for correlation; keep the JSON result small
	}
	writeJSON(obsCleanup, *jsonOut, res)
	if res.Errors > 0 || res.ParityMismatches > 0 {
		failWith(obsCleanup, fmt.Errorf("%d request errors, %d parity mismatches", res.Errors, res.ParityMismatches))
	}
}

type churnOptions struct {
	addr, model, tenant, jsonOut    string
	sessions, total, chunk, clients int
	abandonEvery                    int
	timeout                         time.Duration
}

// runChurnMode drives the concurrent-session churn workload — the fleet
// router's sizing benchmark — and reports per-phase latency.
func runChurnMode(col *obs.Collector, cleanup func(), instances [][][]float64, refs []loadgen.Reference, opt churnOptions) {
	fmt.Printf("churn: %d concurrent sessions, %d total, chunk %d, %d clients\n",
		opt.sessions, opt.total, opt.chunk, opt.clients)
	res, err := loadgen.RunChurn(loadgen.ChurnConfig{
		BaseURL: opt.addr, Model: opt.model,
		Instances: instances, References: refs,
		Sessions: opt.sessions, Total: opt.total,
		ChunkSize: opt.chunk, Clients: opt.clients,
		AbandonEvery: opt.abandonEvery, Timeout: opt.timeout,
		Tenant: opt.tenant,
	})
	if err != nil {
		failWith(cleanup, err)
	}
	fmt.Println(res)
	col.Emit("loadgen_churn_result", map[string]any{
		"sessions": res.Sessions, "decided": res.Decided, "abandoned": res.Abandoned,
		"errors": res.Errors, "shed": res.Shed, "peak_concurrent": res.PeakConcurrent,
		"sessions_per_sec": res.SessionsPerSec, "advances_per_sec": res.AdvancesPerSec,
		"advance_p50_ms": float64(res.Advance.P50) / float64(time.Millisecond),
		"advance_p99_ms": float64(res.Advance.P99) / float64(time.Millisecond),
		"parity_checked": res.ParityChecked, "parity_mismatches": res.ParityMismatches,
	})
	writeJSON(cleanup, opt.jsonOut, res)
	if res.Errors > 0 || res.ParityMismatches > 0 {
		failWith(cleanup, fmt.Errorf("%d request errors, %d parity mismatches", res.Errors, res.ParityMismatches))
	}
}

// runIngestMode replays the whole dataset as one interleaved entity
// event stream — per-entity ordering preserved on the single connection
// — and reports decision latency percentiles plus the server's entity
// churn counters.
func runIngestMode(col *obs.Collector, cleanup func(), d *ts.Dataset, addr, model string, eps float64, cohort int, jsonOut string) {
	events := ingest.InterleaveInstances(d, "entity", cohort)
	fmt.Printf("replaying %d instances of %s as %d interleaved events\n", d.Len(), d.Name, len(events))
	res, err := loadgen.RunIngest(loadgen.IngestConfig{
		BaseURL: addr, Path: "/v1/ingest?model=" + model,
		Events: events, EPS: eps,
	})
	if err != nil {
		failWith(cleanup, err)
	}
	fmt.Println(res)
	col.Emit("loadgen_ingest_result", map[string]any{
		"events": res.Events, "decisions": res.Decisions, "errors": res.Errors,
		"p50_ms":           float64(res.P50) / float64(time.Millisecond),
		"p99_ms":           float64(res.P99) / float64(time.Millisecond),
		"throughput_eps":   res.Throughput,
		"entities_created": res.Summary.EntitiesCreated,
		"entities_evicted": res.Summary.EntitiesEvicted,
		"windows":          res.Summary.Windows,
	})
	writeJSON(cleanup, jsonOut, res)
	if res.Errors > 0 {
		failWith(cleanup, fmt.Errorf("%d response errors", res.Errors))
	}
}

// writeJSON writes a run result as indented JSON to path, when one was
// given with -json.
func writeJSON(cleanup func(), path string, res any) {
	if path == "" {
		return
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		failWith(cleanup, err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		failWith(cleanup, err)
	}
	fmt.Printf("result written to %s\n", path)
}

// failWith flushes observability sinks before exiting so a failed run
// still leaves a complete journal.
func failWith(cleanup func(), err error) {
	fmt.Fprintf(os.Stderr, "etsc-loadgen: %v\n", err)
	cleanup()
	os.Exit(1)
}

// holdoutTest rebuilds the deterministic holdout split etsc-run uses for
// -save-model: fold 0 of the stratified assignment at seed+1.
func holdoutTest(d *ts.Dataset, folds int, seed int64) (*ts.Dataset, error) {
	rng := rand.New(rand.NewSource(seed + 1))
	kfolds, err := ts.StratifiedKFold(d, folds, rng)
	if err != nil {
		return nil, err
	}
	return d.Subset(kfolds[0].Test), nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "etsc-loadgen: %v\n", err)
	os.Exit(1)
}
