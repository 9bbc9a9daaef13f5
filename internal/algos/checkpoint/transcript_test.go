package checkpoint_test

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"github.com/goetsc/goetsc/internal/bench"
	"github.com/goetsc/goetsc/internal/core"
	"github.com/goetsc/goetsc/internal/persist"
	ts "github.com/goetsc/goetsc/internal/timeseries"
)

// updateGolden rewrites testdata/transcript.golden from the current code
// instead of comparing against it:
//
//	go test ./internal/algos/checkpoint -run TestTranscriptGolden -args -update-golden
//
// Regenerate only for a change that is meant to move decisions, and say so.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/transcript.golden")

const goldenPath = "testdata/transcript.golden"

// transcriptAlgos are the algorithms that decide at prefix checkpoints:
// the three on per-prefix WEASEL models and ECO-K on per-prefix boosted
// trees.
var transcriptAlgos = []string{"ECEC", "TEASER", "SR", "ECO-K"}

// overlapDataset draws n noisy instances whose classes separate only
// after a variable-specific onset, so stopping rules see disagreeing and
// low-confidence checkpoints before the classes come apart.
func overlapDataset(name string, numVars, numClasses, n, length int, seed int64) *ts.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &ts.Dataset{Name: name}
	for i := 0; i < n; i++ {
		class := i % numClasses
		in := ts.Instance{Label: class, Values: make([][]float64, numVars)}
		for v := range in.Values {
			onset := length * (v + 1) / (numVars + 2)
			row := make([]float64, length)
			for t := range row {
				row[t] = rng.NormFloat64() * 0.8
				if t >= onset {
					row[t] += float64(class) * 1.2
				}
			}
			in.Values[v] = row
		}
		d.Instances = append(d.Instances, in)
	}
	return d
}

// transcriptProbes returns held-out probes: four full-length instances,
// and copies of two of them cut shorter than the first Fast checkpoint
// (6 of 36 points) and shorter than the last.
func transcriptProbes(held []ts.Instance) []ts.Instance {
	probes := append([]ts.Instance(nil), held...)
	for _, l := range []int{4, 20} {
		for _, in := range held[:2] {
			probes = append(probes, in.Prefix(l))
		}
	}
	return probes
}

// transcript streams each probe into a cursor one point at a time and
// then keeps advancing past the probe's end up to the training length,
// recording (label, consumed, done) at every step. At every step it also
// checks that Classify on the data seen so far gives the same label and
// consumed count.
func transcript(t *testing.T, algo core.EarlyClassifier, prefix string, probes []ts.Instance, length int) []string {
	t.Helper()
	var lines []string
	for pi, in := range probes {
		grow := ts.Instance{Label: in.Label, Values: make([][]float64, len(in.Values))}
		cur, _ := core.NewCursor(algo, grow)
		var b strings.Builder
		fmt.Fprintf(&b, "%s probe%d len=%d", prefix, pi, in.Length())
		for l := 1; l <= length; l++ {
			if l <= in.Length() {
				for v := range in.Values {
					grow.Values[v] = append(grow.Values[v], in.Values[v][l-1])
				}
			}
			label, consumed, done := cur.Advance(l)
			wantLabel, wantConsumed := algo.Classify(in.Prefix(l))
			if label != wantLabel || consumed != wantConsumed {
				t.Fatalf("%s probe%d at %d: cursor (%d, %d), Classify (%d, %d)",
					prefix, pi, l, label, consumed, wantLabel, wantConsumed)
			}
			d := 0
			if done {
				d = 1
			}
			fmt.Fprintf(&b, " %d:%d:%d", label, consumed, d)
		}
		lines = append(lines, b.String())
	}
	return lines
}

// TestTranscriptGolden pins every streamed decision of the checkpoint
// algorithms (ECEC, TEASER, SR, ECO-K) with the Fast preset, on a univariate and
// a 2-variable dataset (through the voting wrapper), for full-length
// probes and probes shorter than the first and the last checkpoint. The
// same transcript must come back from a model that went through a
// persist save/load round-trip.
func TestTranscriptGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden decisions were recorded on amd64, not %s", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("trains four algorithms on two datasets")
	}
	datasets := []*ts.Dataset{
		overlapDataset("transcript-uni", 1, 3, 30, 36, 41),
		overlapDataset("transcript-multi", 2, 2, 26, 36, 42),
	}
	var got []string
	for _, d := range datasets {
		split := d.Len() - 4
		train := d.Subset(seq(split))
		probes := transcriptProbes(d.Instances[split:])
		for _, f := range bench.AlgorithmsByName(d.Name, bench.Fast, 1, transcriptAlgos) {
			algo := core.WrapForDataset(f.New, train)
			if err := algo.Fit(train); err != nil {
				t.Fatalf("%s on %s: fit: %v", f.Name, d.Name, err)
			}
			prefix := f.Name + " " + d.Name
			lines := transcript(t, algo, prefix, probes, d.MaxLength())

			var buf bytes.Buffer
			meta := persist.Meta{Dataset: d.Name, Length: d.MaxLength(), NumVars: d.NumVars(), NumClasses: d.NumClasses()}
			if err := persist.Save(&buf, algo, meta); err != nil {
				t.Fatalf("%s: save: %v", prefix, err)
			}
			loaded, _, err := persist.Load(&buf)
			if err != nil {
				t.Fatalf("%s: load: %v", prefix, err)
			}
			reloaded := transcript(t, loaded, prefix, probes, d.MaxLength())
			for i := range lines {
				if lines[i] != reloaded[i] {
					t.Fatalf("loaded model diverges:\n fitted %s\n loaded %s", lines[i], reloaded[i])
				}
			}
			got = append(got, lines...)
		}
	}

	if *updateGolden {
		body := "# algorithm dataset probe length, then label:consumed:done at prefix 1..36\n" +
			strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(goldenPath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	if len(got) != len(want) {
		t.Fatalf("%d transcript lines, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func readGolden(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -args -update-golden)", err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}
