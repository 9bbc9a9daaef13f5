package mlstm

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

	"github.com/goetsc/goetsc/internal/neural"
)

// updateGolden rewrites testdata/fit.golden from the current code instead
// of comparing against it:
//
//	go test ./internal/mlstm -run TestFitGolden -args -update-golden
//
// Regenerate only for a change that is meant to move trained weights, and
// say so.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/fit.golden")

const goldenPath = "testdata/fit.golden"

// fitFixture is one small training run the golden file pins.
type fitFixture struct {
	name      string
	cfg       Config
	instances [][][]float64
	labels    []int
}

// fitFixtures are a univariate run, a multivariate run whose instances
// vary in length (so per-sample buffers change shape between samples),
// and the attention variant. Batch sizes leave a partial last batch.
func fitFixtures() []fitFixture {
	uni, uniY := sineInstances(rand.New(rand.NewSource(21)), 6, 24)

	rng := rand.New(rand.NewSource(22))
	var multi [][][]float64
	var multiY []int
	for i := 0; i < 10; i++ {
		c := i % 2
		length := 14 + i%3*3
		vars := make([][]float64, 3)
		for v := range vars {
			vars[v] = make([]float64, length)
			for t := range vars[v] {
				vars[v][t] = rng.NormFloat64()
				if v == 1 {
					vars[v][t] = float64(c)*1.5 + rng.NormFloat64()*0.4
				}
			}
		}
		multi = append(multi, vars)
		multiY = append(multiY, c)
	}

	attn, attnY := sineInstances(rand.New(rand.NewSource(23)), 5, 20)
	return []fitFixture{
		{"univariate", Config{Filters: [3]int{4, 8, 4}, Cells: 4, Epochs: 3, BatchSize: 5, LearningRate: 0.01, Seed: 31}, uni, uniY},
		{"multivariate", Config{Filters: [3]int{4, 8, 4}, Cells: 3, Epochs: 3, BatchSize: 4, Seed: 32}, multi, multiY},
		{"attention", Config{Filters: [3]int{4, 6, 4}, Cells: 4, Epochs: 3, BatchSize: 3, Attention: true, Seed: 33}, attn, attnY},
	}
}

// fitLines renders a trained model as one line per tensor: every Param
// value, then the running mean and variance of each ChannelNorm, as
// IEEE-754 bits so any change in any bit shows.
func fitLines(name string, m *Model) []string {
	line := func(tensor string, vals []float64) string {
		var b strings.Builder
		fmt.Fprintf(&b, "%s %s", name, tensor)
		for _, v := range vals {
			fmt.Fprintf(&b, " %016x", math.Float64bits(v))
		}
		return b.String()
	}
	var lines []string
	for i, p := range m.params() {
		lines = append(lines, line(fmt.Sprintf("param%02d", i), p.Val))
	}
	for i, n := range []*neural.ChannelNorm{m.norm1, m.norm2, m.norm3} {
		mean, variance := n.RunningStats()
		lines = append(lines, line(fmt.Sprintf("norm%d.mean", i+1), mean))
		lines = append(lines, line(fmt.Sprintf("norm%d.var", i+1), variance))
	}
	return lines
}

// TestFitGolden pins every trained weight and running statistic of three
// small Fit runs to the bit. Kernel rewrites of the training step that
// claim to reorder no floating-point operation must leave this file
// untouched.
func TestFitGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse a*b+c into one rounding, which
		// moves the low bits the fingerprint was recorded with.
		t.Skipf("golden bits were recorded on amd64, not %s", runtime.GOARCH)
	}
	var got []string
	for _, f := range fitFixtures() {
		m := New(f.cfg)
		if err := m.Fit(f.instances, f.labels, 2); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		got = append(got, fitLines(f.name, m)...)
	}
	if *updateGolden {
		body := "# fixture tensor values... (float64 bits)\n" + strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(goldenPath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	if len(got) != len(want) {
		t.Fatalf("%d tensors, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("tensor %d:\n got  %s\n want %s", i, got[i], want[i])
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
	sc.Buffer(nil, 1<<20)
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
