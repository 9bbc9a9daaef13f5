package main

import "github.com/goetsc/goetsc/internal/bench"

// metricDef names one printed metric and its unit. BENCHMARK.json at the
// repository root lists the same names and units (catalogue_test.go
// keeps the two in step).
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees, printed by every workload
// with --trace 0. NOTES.md gives each metric's meaning per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_us_per_op", "us"},
	{"hm_mean", "share"},
	{"ok_share", "share"},
}

// routes are the serving routes a conversation uses, named as the serve
// and fleet handlers name them.
var routes = []string{"classify", "session_create", "session_points", "session_close"}

// perLayer is printed by every workload with --trace 1; a layer the
// workload does not touch reads 0.
func perLayer() []metricDef {
	defs := []metricDef{{"test_us_per_instance", "us"}}
	for _, a := range bench.AlgorithmNames() {
		defs = append(defs, metricDef{"algo." + a + ".fit_ms", "ms"}, metricDef{"algo." + a + ".test_us", "us"})
	}
	defs = append(defs,
		metricDef{"bench.fold_p50_ms", "ms"},
		metricDef{"sched.busy_share", "share"},
		metricDef{"datasets.generate_ms", "ms"},
		metricDef{"persist.load_ms", "ms"},
	)
	for _, r := range routes {
		defs = append(defs,
			metricDef{"loadgen." + r + "_p50_ms", "ms"},
			metricDef{"loadgen." + r + "_p99_ms", "ms"},
			metricDef{"loadgen." + r + "_samples", "count"},
			metricDef{"fleet." + r + "_p50_ms", "ms"},
			metricDef{"serve." + r + "_p50_ms", "ms"},
			metricDef{"fleet." + r + "_hop_p50_ms", "ms"},
			metricDef{"net." + r + "_gap_p50_ms", "ms"},
		)
	}
	defs = append(defs,
		metricDef{"loadgen.ops_per_s", "1/s"},
		metricDef{"loadgen.decision_p50_ms", "ms"},
		metricDef{"loadgen.decision_p99_ms", "ms"},
		metricDef{"core.advance_us", "us"},
		metricDef{"serve.pin_us", "us"},
		metricDef{"serve.swap_ms", "ms"},
		metricDef{"ingest.retrain_fit_ms", "ms"},
		metricDef{"ingest.windows", "count"},
		metricDef{"ingest.decisions", "count"},
		metricDef{"ingest.drift_trips", "count"},
		metricDef{"ingest.retrains", "count"},
		metricDef{"ingest.swaps", "count"},
		metricDef{"ingest.late", "count"},
		metricDef{"ingest.shed", "count"},
		metricDef{"ingest.useful_share", "share"},
		metricDef{"ingest.decision_p50_ms", "ms"},
		metricDef{"ingest.decision_p99_ms", "ms"},
		metricDef{"ingest.gen_lag_p50_ms", "ms"},
		metricDef{"ingest.gen_lag_max_ms", "ms"},
		metricDef{"host.steal_share", "share"},
		metricDef{"host.num_cpu", "count"},
		metricDef{"host.gomaxprocs", "count"},
		metricDef{"trace.overhead_share", "share"},
		metricDef{"error_share", "share"},
	)
	return defs
}
