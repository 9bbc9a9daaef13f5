// Package testenv holds what tests and gate benchmarks share: build-time
// facts they gate on (allocation gates are meaningless under the race
// detector, whose instrumentation allocates, so they skip when
// RaceEnabled is true) and GateSpeedup, the median-of-pairs check that
// an optimized kernel keeps its speedup over its baseline.
package testenv
