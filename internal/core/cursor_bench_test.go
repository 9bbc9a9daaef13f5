package core_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/goetsc/goetsc/internal/bench"
	"github.com/goetsc/goetsc/internal/core"
	ts "github.com/goetsc/goetsc/internal/timeseries"
)

// lateDataset generates two classes that are indistinguishable until the
// diverge point and separate only after it — the regime early
// classification is about. Decisions land near the end of the series, so
// the benchmarks measure the sustained cost of scanning long undecided
// prefixes rather than a trivial early commit.
func lateDataset(name string, height, length, diverge int, seed int64) *ts.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &ts.Dataset{Name: name}
	for i := 0; i < height; i++ {
		class := i % 2
		s := make([]float64, length)
		for t := 0; t < length; t++ {
			x := float64(t) / float64(length)
			v := math.Sin(2*math.Pi*3*x) + rng.NormFloat64()*0.3
			if t >= diverge {
				v += 2 * float64(class)
			}
			s[t] = v
		}
		d.Instances = append(d.Instances, ts.Instance{Label: class, Values: [][]float64{s}})
	}
	return d
}

// benchFixture trains one algorithm once and replays the probe the
// classifier decides latest on. Both paths of a pair return identical
// answers — the equivalence suite proves it — so each pair isolates the
// cost of the classic rescans.
type benchFixture struct {
	once  sync.Once
	algo  core.EarlyClassifier
	probe ts.Instance
	err   error
}

func (f *benchFixture) setup(b *testing.B, name string, d *ts.Dataset) (core.EarlyClassifier, ts.Instance) {
	b.Helper()
	f.once.Do(func() {
		factories := bench.AlgorithmsByName(d.Name, bench.Fast, 1, []string{name})
		if len(factories) != 1 {
			b.Fatalf("unknown algorithm %q", name)
		}
		f.algo = core.WrapForDataset(factories[0].New, d)
		if f.err = f.algo.Fit(d); f.err != nil {
			return
		}
		latest := -1
		for _, in := range d.Instances {
			if _, consumed := f.algo.Classify(in); consumed > latest {
				latest, f.probe = consumed, in
			}
		}
	})
	if f.err != nil {
		b.Fatalf("fit: %v", f.err)
	}
	return f.algo, f.probe
}

// ECTS runs at L=320: the acceptance claim is that the incremental win
// holds at the paper's longer series lengths (L >= 200), where ECTS's
// classic per-prefix nearest-neighbour rescan is quadratic in the
// decision time.
var (
	ectsData   = lateDataset("bench-ects", 16, 320, 260, 31)
	edscData   = lateDataset("bench-edsc", 14, 120, 90, 33)
	teaserData = lateDataset("bench-teaser", 14, 120, 90, 35)

	ectsFixture, edscFixture, teaserFixture benchFixture
)

// streamChunk is the batch size the streaming benchmarks replay with —
// the serve layer's default session chunk.
const streamChunk = 8

// BenchmarkClassifyECTS{Classic,Cursor} compare one full classification:
// classic ECTS reruns the nearest-neighbour search at every prefix until
// the minimum prediction length is reached, the cursor accumulates the
// running distances once.
func BenchmarkClassifyECTSClassic(b *testing.B) {
	algo, probe := ectsFixture.setup(b, "ECTS", ectsData)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algo.Classify(probe)
	}
}

func BenchmarkClassifyECTSCursor(b *testing.B) {
	algo, probe := ectsFixture.setup(b, "ECTS", ectsData)
	if _, native := core.NewCursor(algo, probe); !native {
		b.Fatal("ECTS: expected a native cursor")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ClassifyIncremental(algo, probe)
	}
}

// reclassifyChunks replays one instance in streaming chunks the way the
// serving layer did before cursors: re-classify the whole prefix on
// every batch until the decision freezes.
func reclassifyChunks(algo core.EarlyClassifier, probe ts.Instance) {
	L := probe.Length()
	for n := streamChunk; ; n += streamChunk {
		if n > L {
			n = L
		}
		_, consumed := algo.Classify(probe.Prefix(n))
		if consumed < n || n == L {
			break
		}
	}
}

// cursorChunks replays the same chunks through one cursor.
func cursorChunks(algo core.EarlyClassifier, probe ts.Instance) {
	L := probe.Length()
	cur, _ := core.NewCursor(algo, probe)
	for n := streamChunk; ; n += streamChunk {
		if n > L {
			n = L
		}
		_, consumed, done := cur.Advance(n)
		if done || consumed < n || n == L {
			break
		}
	}
}

// nativeCursorFixture is fix.setup for the cursor side of a pair: it
// fails unless the algorithm streams through a native cursor.
func nativeCursorFixture(b *testing.B, fix *benchFixture, name string, d *ts.Dataset) (core.EarlyClassifier, ts.Instance) {
	algo, probe := fix.setup(b, name, d)
	if _, native := core.NewCursor(algo, probe); !native {
		b.Fatalf("%s: expected a native cursor", name)
	}
	return algo, probe
}

func benchReclassify(b *testing.B, fix *benchFixture, name string, d *ts.Dataset) {
	algo, probe := fix.setup(b, name, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reclassifyChunks(algo, probe)
	}
}

func benchStreamCursor(b *testing.B, fix *benchFixture, name string, d *ts.Dataset) {
	algo, probe := nativeCursorFixture(b, fix, name, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cursorChunks(algo, probe)
	}
}

func BenchmarkStreamEDSCReclassify(b *testing.B) {
	benchReclassify(b, &edscFixture, "EDSC", edscData)
}

func BenchmarkStreamEDSCCursor(b *testing.B) {
	benchStreamCursor(b, &edscFixture, "EDSC", edscData)
}

func BenchmarkStreamTEASERReclassify(b *testing.B) {
	benchReclassify(b, &teaserFixture, "TEASER", teaserData)
}

func BenchmarkStreamTEASERCursor(b *testing.B) {
	benchStreamCursor(b, &teaserFixture, "TEASER", teaserData)
}
