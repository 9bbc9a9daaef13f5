package minirocket

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

// updateGolden rewrites testdata/biases.golden from the current code
// instead of comparing against it:
//
//	go test ./internal/minirocket -run TestFitBiasesGolden -args -update-golden
//
// Regenerate only for a change that is meant to move fitted biases, and
// say so.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/biases.golden")

const biasGoldenPath = "testdata/biases.golden"

// biasFixture is one small Fit whose biases the golden file pins.
type biasFixture struct {
	name      string
	instances [][][]float64
	labels    []int
}

// signedZeroInstances are mostly exact zeros of both signs with sparse
// spikes, so many convolution outputs are ±0 and a selected bias
// quantile lands on a zero.
func signedZeroInstances(rng *rand.Rand, n, length int) ([][][]float64, []int) {
	var instances [][][]float64
	var labels []int
	for i := 0; i < n; i++ {
		s := make([]float64, length)
		for t := range s {
			switch r := rng.Intn(20); {
			case r < 9:
				s[t] = math.Copysign(0, -1)
			case r < 19:
				s[t] = 0
			default:
				s[t] = float64(i%2+1) * rng.NormFloat64()
			}
		}
		instances = append(instances, [][]float64{s})
		labels = append(labels, i%2)
	}
	return instances, labels
}

func biasFixtures() []biasFixture {
	uni, uniY := sineInstances(rand.New(rand.NewSource(61)), 6, 48)

	rng := rand.New(rand.NewSource(62))
	var multi [][][]float64
	var multiY []int
	for i := 0; i < 12; i++ {
		vars := make([][]float64, 4)
		for v := range vars {
			vars[v] = make([]float64, 40)
			for t := range vars[v] {
				vars[v][t] = rng.NormFloat64() + float64(i%2*v)*0.5
			}
		}
		multi = append(multi, vars)
		multiY = append(multiY, i%2)
	}

	zeros, zerosY := signedZeroInstances(rand.New(rand.NewSource(63)), 10, 40)

	withNaN, withNaNY := sineInstances(rand.New(rand.NewSource(64)), 5, 40)
	for t := 5; t < 40; t += 2 {
		withNaN[3][0][t] = math.NaN()
	}

	return []biasFixture{
		{"univariate", uni, uniY},
		{"multivariate", multi, multiY},
		{"signed-zeros", zeros, zerosY},
		{"nan", withNaN, withNaNY},
	}
}

// biasLines renders each combo's biases as IEEE-754 bits, one line per
// combo.
func biasLines(name string, m *Model) []string {
	lines := make([]string, 0, len(m.combos))
	for i, cb := range m.combos {
		var b strings.Builder
		fmt.Fprintf(&b, "%s combo%03d", name, i)
		for _, v := range cb.biases {
			fmt.Fprintf(&b, " %016x", math.Float64bits(v))
		}
		lines = append(lines, b.String())
	}
	return lines
}

// TestFitBiasesGolden pins every fitted bias of four small Fit runs to
// the bit: univariate, multivariate, a signed-zero-heavy set whose
// selected quantiles include zeros of both signs, and a set with NaNs in
// one instance, whose low quantiles are NaN.
// Biases are persisted with the model, so a rewrite of the quantile
// step that claims to change nothing must leave this file untouched,
// sign bits of zero included.
func TestFitBiasesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse 3*sumPos-sumAll into one rounding.
		t.Skipf("golden bits were recorded on amd64, not %s", runtime.GOARCH)
	}
	var got []string
	for _, f := range biasFixtures() {
		m := New(Config{NumFeatures: 1260, Seed: 65})
		// The head's fit may reject NaN features; the biases are set
		// before it runs and are what this test pins.
		_ = m.Fit(f.instances, f.labels, 2)
		got = append(got, biasLines(f.name, m)...)
	}
	if *updateGolden {
		body := "# fixture combo: bias bits\n" + strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(biasGoldenPath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readBiasGolden(t)
	if len(got) != len(want) {
		t.Fatalf("%d combos, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("combo line %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}

func readBiasGolden(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(biasGoldenPath)
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
