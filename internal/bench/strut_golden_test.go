package bench

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"github.com/goetsc/goetsc/internal/datasets"
	"github.com/goetsc/goetsc/internal/strut"
)

// strutGoldenPath pins S-MLSTM's truncation search at the Paper preset:
//
//	go test ./internal/bench -run TestSMLSTMPaperGolden -args -update-golden
const strutGoldenPath = "testdata/smlstm_paper.golden"

// TestSMLSTMPaperGolden fits S-MLSTM as the Paper preset builds it (cell
// grid {8, 64}, so Fit picks a variant before the truncation grid) on a
// small Biological set (multivariate, length 48). It pins the chosen
// variant, the truncation point, every evaluated (length, score) pair to
// the bit and the final model's label for every training instance.
func TestSMLSTMPaperGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits were recorded on amd64, not %s", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("paper-preset MLSTM-FCN fit in -short mode")
	}
	spec, err := datasets.ByName("Biological")
	if err != nil {
		t.Fatal(err)
	}
	d := spec.Generate(0.05, 7)
	f := AlgorithmsByName(d.Name, Paper, 7, []string{"S-MLSTM"})
	if len(f) != 1 {
		t.Fatalf("%d factories for S-MLSTM", len(f))
	}
	c, ok := f[0].New().(*strut.Classifier)
	if !ok {
		t.Fatal("S-MLSTM is not a *strut.Classifier")
	}
	if err := c.Fit(d); err != nil {
		t.Fatal(err)
	}
	got := []string{fmt.Sprintf("chosen %s truncation %d", c.ChosenVariant(), c.TruncationPoint())}
	for _, p := range c.Evaluations() {
		got = append(got, fmt.Sprintf("eval %d %016x", p.Length, math.Float64bits(p.Score)))
	}
	var labels strings.Builder
	for _, in := range d.Instances {
		label, _ := c.Classify(in)
		fmt.Fprintf(&labels, " %d", label)
	}
	got = append(got, "labels"+labels.String())
	if *updateGolden {
		body := "# S-MLSTM (Paper preset) on Biological scale 0.05 seed 7: chosen variant, truncation point, (length, score bits), training-set labels\n" +
			strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(strutGoldenPath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGoldenFile(t, strutGoldenPath)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("S-MLSTM search moved:\n got  %q\n want %q", got, want)
	}
}
