package bench

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
)

// updateGolden rewrites testdata/fast_matrix.golden from the current code
// instead of comparing against it:
//
//	go test ./internal/bench -run TestFastMatrixGolden -args -update-golden
//
// Regenerate only for a change that is meant to move scores, and say so.
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files of the tests that run")

const goldenPath = "testdata/fast_matrix.golden"

// goldenCfg is the small Fast matrix the fingerprint covers: every
// algorithm on a univariate, a multivariate and a varying-length dataset.
func goldenCfg() RunConfig {
	return RunConfig{
		Datasets: []string{"PowerCons", "BasicMotions", "Biological"},
		Scale:    0.1,
		Folds:    2,
		Seed:     7,
		Preset:   Fast,
	}
}

// goldenLine renders one cell's scores as the IEEE-754 bits of Accuracy,
// MacroF1, Earliness and HarmonicMean, so any change in any bit shows.
func goldenLine(c Cell) string {
	r := c.Result
	return fmt.Sprintf("%s %s %s %016x %016x %016x %016x", c.Dataset, c.Algorithm, c.Status,
		math.Float64bits(r.Accuracy), math.Float64bits(r.MacroF1),
		math.Float64bits(r.Earliness), math.Float64bits(r.HarmonicMean))
}

// TestFastMatrixGolden pins every cell score of a small Fast matrix to
// the bit. Kernel rewrites that claim to reorder no floating-point
// operation must leave this file untouched.
func TestFastMatrixGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse a*b+c into one rounding, which
		// moves the low bits the fingerprint was recorded with.
		t.Skipf("golden bits were recorded on amd64, not %s", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("matrix run in -short mode")
	}
	res, err := Run(goldenCfg())
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(res.Cells))
	for i, c := range res.Cells {
		got[i] = goldenLine(c)
	}
	if *updateGolden {
		body := "# dataset algorithm status accuracy macro_f1 earliness harmonic_mean (float64 bits)\n" +
			strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(goldenPath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	if len(got) != len(want) {
		t.Fatalf("%d cells, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("cell %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}

func readGolden(t *testing.T) []string {
	t.Helper()
	return readGoldenFile(t, goldenPath)
}

// readGoldenFile returns a golden file's lines, skipping blanks and
// # comments.
func readGoldenFile(t *testing.T, path string) []string {
	t.Helper()
	f, err := os.Open(path)
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
