package checkpoint_test

import (
	"math"
	"testing"

	"github.com/goetsc/goetsc/internal/bench"
	"github.com/goetsc/goetsc/internal/core"
	ts "github.com/goetsc/goetsc/internal/timeseries"
)

// TestDecisionsReadOnlyTheirPrefix: every algorithm's decision
// (label, consumed) on a held-out probe depends only on the first
// consumed points. Each point at or after consumed is overwritten with
// huge magnitudes of either sign, a constant and NaN, and offline
// Classify as well as a cursor streamed to the probe's full length must
// return the same decision. It covers all nine algorithms with the Fast
// preset, on a univariate and a 2-variable dataset (through the voting
// wrapper), on the transcript test's probes.
func TestDecisionsReadOnlyTheirPrefix(t *testing.T) {
	datasets := []*ts.Dataset{
		overlapDataset("prefix-uni", 1, 3, 30, 36, 41),
		overlapDataset("prefix-multi", 2, 2, 26, 36, 42),
	}
	suffixes := []float64{1e12, -1e12, 3, math.NaN()}
	for _, d := range datasets {
		split := d.Len() - 4
		train := d.Subset(seq(split))
		probes := transcriptProbes(d.Instances[split:])
		factories := append(bench.Algorithms(d.Name, bench.Fast, 1), bench.ExtensionAlgorithms(d.Name, bench.Fast, 1)...)
		for _, f := range factories {
			algo := core.WrapForDataset(f.New, train)
			if err := algo.Fit(train); err != nil {
				t.Fatalf("%s on %s: fit: %v", f.Name, d.Name, err)
			}
			for pi, in := range probes {
				label, consumed := algo.Classify(in)
				for _, x := range suffixes {
					mod := overwriteFrom(in, consumed, x)
					if l, c := algo.Classify(mod); l != label || c != consumed {
						t.Errorf("%s %s probe%d, suffix from %d set to %g: Classify (%d, %d), want (%d, %d)",
							f.Name, d.Name, pi, consumed, x, l, c, label, consumed)
					}
					if l, c := streamed(algo, mod); l != label || c != consumed {
						t.Errorf("%s %s probe%d, suffix from %d set to %g: cursor (%d, %d), want (%d, %d)",
							f.Name, d.Name, pi, consumed, x, l, c, label, consumed)
					}
				}
			}
		}
	}
}

// overwriteFrom returns a copy of in with every point at or after from,
// in every variable, set to x.
func overwriteFrom(in ts.Instance, from int, x float64) ts.Instance {
	out := ts.Instance{Label: in.Label, Values: make([][]float64, len(in.Values))}
	for v, row := range in.Values {
		out.Values[v] = append([]float64(nil), row...)
		for t := from; t < len(row); t++ {
			out.Values[v][t] = x
		}
	}
	return out
}

// streamed feeds in to a cursor one point at a time and returns its
// decision at the full length.
func streamed(algo core.EarlyClassifier, in ts.Instance) (label, consumed int) {
	grow := ts.Instance{Label: in.Label, Values: make([][]float64, len(in.Values))}
	cur, _ := core.NewCursor(algo, grow)
	for l := 1; l <= in.Length(); l++ {
		for v := range in.Values {
			grow.Values[v] = append(grow.Values[v], in.Values[v][l-1])
		}
		label, consumed, _ = cur.Advance(l)
	}
	return label, consumed
}
