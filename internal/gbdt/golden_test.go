package gbdt

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
)

// updateGolden rewrites testdata/fit.golden from the current code instead
// of comparing against it:
//
//	go test ./internal/gbdt -run TestFitGolden -args -update-golden
//
// Regenerate only for a change that is meant to move trained trees, and
// say so.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/fit.golden")

const goldenPath = "testdata/fit.golden"

// goldenColumns builds n rows whose columns cover every case the split
// search treats specially: distinct values, heavy ties, ±0, NaN, a
// constant column, and prefix columns whose tails are padded the way
// ECO-K pads short series (with zeros or with the last observed value).
func goldenColumns(rng *rand.Rand, n, numClasses int) ([][]float64, []int) {
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		c := i % numClasses
		y[i] = c
		row := make([]float64, 10)
		row[0] = rng.NormFloat64() + float64(c)*0.8
		row[1] = float64(rng.Intn(4) + c%2)
		switch r := rng.Intn(6); {
		case r == 0:
			row[2] = math.Copysign(0, -1)
		case r == 1:
			row[2] = 0
		default:
			row[2] = float64(rng.Intn(3)) - 1 + float64(c)*0.5
		}
		row[3] = rng.NormFloat64() + float64(c)
		if rng.Intn(7) == 0 {
			row[3] = math.NaN()
		}
		row[4] = 2.5
		// Prefix columns 5..9: a noisy series that stops early for some
		// rows and is padded with zeros or with its last value.
		stop := 10
		if rng.Intn(3) == 0 {
			stop = 6 + rng.Intn(3)
		}
		last := 0.0
		for j := 5; j < 10; j++ {
			if j < stop {
				row[j] = math.Round((rng.NormFloat64()+float64(c)*0.6)*4) / 4
				last = row[j]
				continue
			}
			if i%2 == 0 {
				row[j] = 0
			} else {
				row[j] = last
			}
		}
		X[i] = row
	}
	return X, y
}

// goldenFixture is one small Fit the golden file pins.
type goldenFixture struct {
	name       string
	cfg        Config
	numClasses int
	seed       int64
}

func goldenFixtures() []goldenFixture {
	return []goldenFixture{
		{"binary", Config{Rounds: 8, MaxDepth: 4}, 2, 71},
		{"binary-sub", Config{Rounds: 8, MaxDepth: 4, Subsample: 0.6, Seed: 3}, 2, 72},
		{"multi", Config{Rounds: 5, MaxDepth: 3}, 4, 73},
		{"multi-sub", Config{Rounds: 5, MaxDepth: 3, Subsample: 0.6, Seed: 4}, 4, 74},
	}
}

// treeLines renders every node of every tree as one line: split feature,
// threshold and leaf value as IEEE-754 bits, and child indices.
func treeLines(name string, m *Model) []string {
	var lines []string
	for r, round := range m.trees {
		for c, tr := range round {
			for k, nd := range tr.nodes {
				lines = append(lines, fmt.Sprintf("%s r%d c%d n%d f=%d t=%016x v=%016x l=%d r=%d",
					name, r, c, k, nd.feature, math.Float64bits(nd.threshold), math.Float64bits(nd.value), nd.left, nd.right))
			}
		}
	}
	return lines
}

// TestFitGolden pins every node of four small ensembles to the bit:
// binary and 4-class, with and without row subsampling. A split-search
// rewrite that claims to pick the same splits must leave this file
// untouched.
func TestFitGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits were recorded on amd64, not %s", runtime.GOARCH)
	}
	var got []string
	for _, f := range goldenFixtures() {
		X, y := goldenColumns(rand.New(rand.NewSource(f.seed)), 90, f.numClasses)
		m := New(f.cfg)
		if err := m.Fit(X, y, f.numClasses); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		got = append(got, treeLines(f.name, m)...)
	}
	if *updateGolden {
		body := "# fixture round class node: feature, threshold bits, leaf-value bits, children\n" + strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(goldenPath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	if len(got) != len(want) {
		t.Fatalf("%d nodes, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("node line %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}

func readGolden(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if l := sc.Text(); l != "" && !strings.HasPrefix(l, "#") {
			lines = append(lines, l)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// fitSink keeps the measured call from being optimized away.
var fitSink *Model

// prefixRows builds n rows of ECO-K-style input: length-24 random-walk
// prefixes with a class drift, a third of them cut short and padded with
// their last value, as ECO-K pads short series.
func prefixRows(rng *rand.Rand, n, numClasses int) ([][]float64, []int) {
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		c := i % numClasses
		y[i] = c
		row := make([]float64, 24)
		stop := len(row)
		if rng.Intn(3) == 0 {
			stop = 12 + rng.Intn(12)
		}
		v := 0.0
		for j := range row {
			if j < stop {
				v += rng.NormFloat64() + float64(c)*0.2
			}
			row[j] = v
		}
		X[i] = row
	}
	return X, y
}

// BenchmarkGBDTFit fits one ECO-K-sized ensemble (the default 50 rounds,
// depth 3) on 200 rows in three classes: "prefixes" on prefixRows, whose
// columns rarely tie, and "ties" on the golden columns, most of which
// are tie-heavy.
func BenchmarkGBDTFit(b *testing.B) {
	for _, bc := range []struct {
		name string
		rows func(*rand.Rand, int, int) ([][]float64, []int)
	}{{"prefixes", prefixRows}, {"ties", goldenColumns}} {
		b.Run(bc.name, func(b *testing.B) {
			X, y := bc.rows(rand.New(rand.NewSource(75)), 200, 3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := New(Config{})
				if err := m.Fit(X, y, 3); err != nil {
					b.Fatal(err)
				}
				fitSink = m
			}
		})
	}
}
