package timeseries

import (
	"math"
	"math/rand"
	"testing"
)

func mkInstance(label int, rows ...[]float64) Instance {
	return Instance{Values: rows, Label: label}
}

func mkDataset(name string, instances ...Instance) *Dataset {
	return &Dataset{Name: name, Instances: instances}
}

func TestInstancePrefix(t *testing.T) {
	in := mkInstance(1, []float64{1, 2, 3, 4, 5}, []float64{10, 20, 30, 40, 50})
	p := in.Prefix(3)
	if p.Length() != 3 {
		t.Fatalf("prefix length = %d, want 3", p.Length())
	}
	if p.NumVars() != 2 {
		t.Fatalf("prefix vars = %d, want 2", p.NumVars())
	}
	if p.Values[1][2] != 30 {
		t.Fatalf("prefix value = %v, want 30", p.Values[1][2])
	}
	if p.Label != 1 {
		t.Fatalf("prefix label = %d, want 1", p.Label)
	}
	// Prefix beyond length returns the full instance.
	full := in.Prefix(100)
	if full.Length() != 5 {
		t.Fatalf("over-long prefix length = %d, want 5", full.Length())
	}
}

func TestInstanceVariableAndClone(t *testing.T) {
	in := mkInstance(2, []float64{1, 2}, []float64{3, 4})
	v := in.Variable(1)
	if v.NumVars() != 1 || v.Values[0][0] != 3 {
		t.Fatalf("variable view wrong: %+v", v)
	}
	c := in.Clone()
	c.Values[0][0] = 99
	if in.Values[0][0] == 99 {
		t.Fatal("clone shares storage with original")
	}
}

func TestDatasetAccessors(t *testing.T) {
	d := mkDataset("d",
		mkInstance(0, []float64{1, 2, 3}),
		mkInstance(1, []float64{4, 5}),
		mkInstance(1, []float64{6, 7, 8, 9}),
	)
	if d.Len() != 3 {
		t.Fatalf("Len = %d", d.Len())
	}
	if d.MaxLength() != 4 || d.MinLength() != 2 {
		t.Fatalf("lengths = %d,%d", d.MaxLength(), d.MinLength())
	}
	if d.NumClasses() != 2 {
		t.Fatalf("classes = %d", d.NumClasses())
	}
	counts := d.ClassCounts()
	if counts[0] != 1 || counts[1] != 2 {
		t.Fatalf("counts = %v", counts)
	}
	labels := d.Labels()
	if labels[0] != 0 || labels[2] != 1 {
		t.Fatalf("labels = %v", labels)
	}
}

func TestDatasetSubsetSharesStorage(t *testing.T) {
	d := mkDataset("d", mkInstance(0, []float64{1}), mkInstance(0, []float64{2}), mkInstance(0, []float64{3}))
	s := d.Subset([]int{2, 0})
	if s.Len() != 2 || s.Instances[0].Values[0][0] != 3 || s.Instances[1].Values[0][0] != 1 {
		t.Fatalf("subset wrong: %+v", s.Instances)
	}
}

func TestDatasetTruncate(t *testing.T) {
	d := mkDataset("d", mkInstance(0, []float64{1, 2, 3, 4}), mkInstance(0, []float64{5, 6}))
	tr := d.Truncate(3)
	if tr.Instances[0].Length() != 3 {
		t.Fatalf("truncated length = %d", tr.Instances[0].Length())
	}
	if tr.Instances[1].Length() != 2 {
		t.Fatalf("short instance should be kept whole, got %d", tr.Instances[1].Length())
	}
}

func TestValidate(t *testing.T) {
	good := mkDataset("g", mkInstance(0, []float64{1, 2}), mkInstance(1, []float64{3, 4}))
	if err := good.Validate(); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
	cases := map[string]*Dataset{
		"empty":           mkDataset("e"),
		"var mismatch":    mkDataset("v", mkInstance(0, []float64{1}), mkInstance(0, []float64{1}, []float64{2})),
		"ragged instance": mkDataset("r", mkInstance(0, []float64{1, 2}, []float64{3})),
		"empty instance":  mkDataset("z", mkInstance(0, []float64{})),
	}
	for name, d := range cases {
		if err := d.Validate(); err == nil {
			t.Errorf("%s: invalid dataset accepted", name)
		}
	}
}

func TestInterpolateGapRule(t *testing.T) {
	nan := math.NaN()
	d := mkDataset("d", mkInstance(0, []float64{nan, 2, nan, nan, 6, nan}))
	d.Interpolate()
	row := d.Instances[0].Values[0]
	want := []float64{2, 2, 4, 4, 6, 6}
	for i := range want {
		if row[i] != want[i] {
			t.Fatalf("row[%d] = %v, want %v (full row %v)", i, row[i], want[i], row)
		}
	}
}

func TestInterpolateAllMissing(t *testing.T) {
	nan := math.NaN()
	d := mkDataset("d", mkInstance(0, []float64{nan, nan}))
	d.Interpolate()
	for _, v := range d.Instances[0].Values[0] {
		if v != 0 {
			t.Fatalf("fully-missing row should become zeros, got %v", d.Instances[0].Values[0])
		}
	}
}

func TestStratifiedKFoldPreservesProportions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var instances []Instance
	for i := 0; i < 40; i++ {
		instances = append(instances, mkInstance(0, []float64{float64(i)}))
	}
	for i := 0; i < 10; i++ {
		instances = append(instances, mkInstance(1, []float64{float64(i)}))
	}
	d := mkDataset("d", instances...)
	folds, err := StratifiedKFold(d, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 5 {
		t.Fatalf("folds = %d", len(folds))
	}
	seen := make(map[int]int)
	for _, f := range folds {
		if len(f.Train)+len(f.Test) != d.Len() {
			t.Fatalf("fold does not partition dataset: %d + %d != %d", len(f.Train), len(f.Test), d.Len())
		}
		c0, c1 := 0, 0
		for _, idx := range f.Test {
			seen[idx]++
			if d.Instances[idx].Label == 0 {
				c0++
			} else {
				c1++
			}
		}
		if c0 != 8 || c1 != 2 {
			t.Fatalf("fold class balance = %d/%d, want 8/2", c0, c1)
		}
		// No overlap between train and test.
		inTest := map[int]bool{}
		for _, idx := range f.Test {
			inTest[idx] = true
		}
		for _, idx := range f.Train {
			if inTest[idx] {
				t.Fatalf("index %d in both train and test", idx)
			}
		}
	}
	// Every instance appears exactly once as a test instance.
	if len(seen) != d.Len() {
		t.Fatalf("test coverage = %d instances, want %d", len(seen), d.Len())
	}
	for idx, n := range seen {
		if n != 1 {
			t.Fatalf("instance %d appears %d times in test sets", idx, n)
		}
	}
}

func TestStratifiedKFoldErrors(t *testing.T) {
	d := mkDataset("d", mkInstance(0, []float64{1}), mkInstance(0, []float64{2}))
	rng := rand.New(rand.NewSource(1))
	if _, err := StratifiedKFold(d, 1, rng); err == nil {
		t.Fatal("k=1 accepted")
	}
	if _, err := StratifiedKFold(d, 5, rng); err == nil {
		t.Fatal("k > len accepted")
	}
}

func TestStratifiedSplit(t *testing.T) {
	var instances []Instance
	for i := 0; i < 30; i++ {
		instances = append(instances, mkInstance(i%3, []float64{float64(i)}))
	}
	d := mkDataset("d", instances...)
	rng := rand.New(rand.NewSource(3))
	train, val, err := StratifiedSplit(d, 0.8, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(train)+len(val) != 30 {
		t.Fatalf("split sizes %d+%d != 30", len(train), len(val))
	}
	counts := make(map[int]int)
	for _, idx := range train {
		counts[d.Instances[idx].Label]++
	}
	for c := 0; c < 3; c++ {
		if counts[c] != 8 {
			t.Fatalf("class %d train count = %d, want 8", c, counts[c])
		}
	}
	if _, _, err := StratifiedSplit(d, 1.5, rng); err == nil {
		t.Fatal("bad fraction accepted")
	}
}

func TestUnivariateProjection(t *testing.T) {
	d := mkDataset("m", mkInstance(1, []float64{1, 2}, []float64{3, 4}))
	u := d.Univariate(1)
	if u.NumVars() != 1 || u.Instances[0].Values[0][1] != 4 {
		t.Fatalf("projection wrong: %+v", u.Instances[0])
	}
	if u.Instances[0].Label != 1 {
		t.Fatal("label lost in projection")
	}
}
