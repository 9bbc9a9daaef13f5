package bench

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"github.com/goetsc/goetsc/internal/datasets"
	"github.com/goetsc/goetsc/internal/strut"
	ts "github.com/goetsc/goetsc/internal/timeseries"
)

// strutFastGoldenPath pins the Fast preset's STRUT decisions:
//
//	go test ./internal/bench -run TestFastStrutGolden -args -update-golden
const strutFastGoldenPath = "testdata/strut_fast.golden"

// TestFastStrutGolden fits S-MINI, S-MLSTM and S-WEASEL as the Fast
// preset builds them on fold 0 of 2 of the four perfbench matrix
// datasets (scale 0.1, seed 7, folds drawn as core.Evaluate draws
// them). It pins each model's truncation point and the label it gives
// every instance of the dataset, so a change to how the truncation
// search reaches its decision cannot move the decision unnoticed.
func TestFastStrutGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits were recorded on amd64, not %s", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("Fast STRUT fits in -short mode")
	}
	const seed = 7
	var got []string
	for _, name := range []string{"PowerCons", "BasicMotions", "DodgerLoopDay", "Biological"} {
		spec, err := datasets.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		d := spec.Generate(0.1, seed)
		folds, err := ts.StratifiedKFold(d, 2, rand.New(rand.NewSource(seed+1)))
		if err != nil {
			t.Fatal(err)
		}
		train := d.Subset(folds[0].Train)
		for _, f := range AlgorithmsByName(d.Name, Fast, seed, []string{"S-MINI", "S-MLSTM", "S-WEASEL"}) {
			c, ok := f.New().(*strut.Classifier)
			if !ok {
				t.Fatalf("%s is not a *strut.Classifier", f.Name)
			}
			if err := c.Fit(train); err != nil {
				t.Fatalf("%s on %s: %v", f.Name, name, err)
			}
			var labels strings.Builder
			for _, in := range d.Instances {
				label, _ := c.Classify(in)
				fmt.Fprintf(&labels, " %d", label)
			}
			got = append(got, fmt.Sprintf("%s %s truncation %d labels%s", name, f.Name, c.TruncationPoint(), labels.String()))
		}
	}
	if *updateGolden {
		body := "# dataset algorithm truncation point, labels of every instance (Fast preset, scale 0.1, seed 7, trained on fold 0 of 2)\n" +
			strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(strutFastGoldenPath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGoldenFile(t, strutFastGoldenPath)
	if len(got) != len(want) {
		t.Fatalf("%d models, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("model %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}
