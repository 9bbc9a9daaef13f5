// Package timeseries defines the data model shared by every component of the
// ETSC evaluation framework: labeled, possibly multivariate time-series
// instances grouped into datasets, together with the preprocessing
// primitives the paper relies on (prefix truncation, gap interpolation,
// z-normalization, stratified splitting).
//
// The memory layout follows the framework's CSV format (one variable per
// row, label first): an Instance holds Values[variable][time], so a
// univariate series is simply an Instance with a single row.
package timeseries

import (
	"fmt"
	"math"
	"time"
)

// Instance is a single labeled (multivariate) time series.
//
// Values is indexed as Values[variable][timePoint]. All variables of one
// instance must have the same length, but different instances of a dataset
// may have different lengths (e.g. the PLAID dataset).
type Instance struct {
	// Values holds one row per variable. Missing measurements are
	// represented as NaN and can be repaired with Dataset.Interpolate.
	Values [][]float64
	// Label is the class index in [0, NumClasses).
	Label int
}

// NumVars returns the number of variables of the instance.
func (in Instance) NumVars() int { return len(in.Values) }

// Length returns the number of time points of the instance. It panics if
// the instance has no variables.
func (in Instance) Length() int { return len(in.Values[0]) }

// Prefix returns a view of the first t time points of the instance. The
// returned instance shares backing arrays with the receiver; callers must
// not mutate it. If t exceeds the instance length the full instance is
// returned.
func (in Instance) Prefix(t int) Instance {
	if t >= in.Length() {
		return in
	}
	vals := make([][]float64, len(in.Values))
	for v, row := range in.Values {
		vals[v] = row[:t]
	}
	return Instance{Values: vals, Label: in.Label}
}

// Variable returns a univariate view of variable v, sharing backing storage.
func (in Instance) Variable(v int) Instance {
	return Instance{Values: [][]float64{in.Values[v]}, Label: in.Label}
}

// Clone returns a deep copy of the instance.
func (in Instance) Clone() Instance {
	vals := make([][]float64, len(in.Values))
	for v, row := range in.Values {
		vals[v] = append([]float64(nil), row...)
	}
	return Instance{Values: vals, Label: in.Label}
}

// Dataset is a named collection of instances with class metadata.
type Dataset struct {
	// Name identifies the dataset (e.g. "PowerCons", "Maritime").
	Name string
	// ClassNames maps class indices to human-readable labels. It may be
	// empty, in which case class indices are used directly.
	ClassNames []string
	// VarNames optionally names the variables (e.g. "alive", "necrotic").
	VarNames []string
	// Instances holds the labeled series.
	Instances []Instance
	// Freq is the real-world interval between consecutive observations.
	// It drives the online-feasibility analysis of the paper's Figure 13.
	Freq time.Duration
}

// Len returns the number of instances (the paper's dataset "height" N).
func (d *Dataset) Len() int { return len(d.Instances) }

// NumVars returns the number of variables per instance. Datasets are
// assumed homogeneous in the variable dimension; an empty dataset reports 0.
func (d *Dataset) NumVars() int {
	if len(d.Instances) == 0 {
		return 0
	}
	return d.Instances[0].NumVars()
}

// MaxLength returns the maximum series length (the paper's "length" L).
func (d *Dataset) MaxLength() int {
	max := 0
	for _, in := range d.Instances {
		if l := in.Length(); l > max {
			max = l
		}
	}
	return max
}

// MinLength returns the minimum series length across instances.
func (d *Dataset) MinLength() int {
	if len(d.Instances) == 0 {
		return 0
	}
	min := d.Instances[0].Length()
	for _, in := range d.Instances[1:] {
		if l := in.Length(); l < min {
			min = l
		}
	}
	return min
}

// NumClasses returns the number of distinct classes. If ClassNames is set
// its length is returned, otherwise the maximum label + 1.
func (d *Dataset) NumClasses() int {
	if len(d.ClassNames) > 0 {
		return len(d.ClassNames)
	}
	max := -1
	for _, in := range d.Instances {
		if in.Label > max {
			max = in.Label
		}
	}
	return max + 1
}

// ClassCounts returns the number of instances per class label.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, d.NumClasses())
	for _, in := range d.Instances {
		counts[in.Label]++
	}
	return counts
}

// Labels returns the label of every instance, in order.
func (d *Dataset) Labels() []int {
	out := make([]int, len(d.Instances))
	for i, in := range d.Instances {
		out[i] = in.Label
	}
	return out
}

// Subset returns a new dataset holding the instances at the given indices.
// Instance storage is shared with the receiver.
func (d *Dataset) Subset(indices []int) *Dataset {
	sub := &Dataset{
		Name:       d.Name,
		ClassNames: d.ClassNames,
		VarNames:   d.VarNames,
		Freq:       d.Freq,
		Instances:  make([]Instance, len(indices)),
	}
	for i, idx := range indices {
		sub.Instances[i] = d.Instances[idx]
	}
	return sub
}

// Univariate projects the dataset onto a single variable. Storage is
// shared with the receiver.
func (d *Dataset) Univariate(v int) *Dataset {
	out := &Dataset{
		Name:       fmt.Sprintf("%s[var=%d]", d.Name, v),
		ClassNames: d.ClassNames,
		Freq:       d.Freq,
		Instances:  make([]Instance, len(d.Instances)),
	}
	if len(d.VarNames) > v {
		out.VarNames = []string{d.VarNames[v]}
	}
	for i, in := range d.Instances {
		out.Instances[i] = in.Variable(v)
	}
	return out
}

// Truncate returns a copy of the dataset where every instance is cut to its
// first t time points (instances shorter than t are kept whole). Storage is
// shared with the receiver.
func (d *Dataset) Truncate(t int) *Dataset {
	out := &Dataset{
		Name:       d.Name,
		ClassNames: d.ClassNames,
		VarNames:   d.VarNames,
		Freq:       d.Freq,
		Instances:  make([]Instance, len(d.Instances)),
	}
	for i, in := range d.Instances {
		out.Instances[i] = in.Prefix(t)
	}
	return out
}

// Clone deep-copies the dataset including all instance storage.
func (d *Dataset) Clone() *Dataset {
	out := &Dataset{
		Name:       d.Name,
		ClassNames: append([]string(nil), d.ClassNames...),
		VarNames:   append([]string(nil), d.VarNames...),
		Freq:       d.Freq,
		Instances:  make([]Instance, len(d.Instances)),
	}
	for i, in := range d.Instances {
		out.Instances[i] = in.Clone()
	}
	return out
}

// Validate checks structural invariants: at least one instance, consistent
// variable counts, equal variable lengths within each instance, and labels
// within [0, NumClasses).
func (d *Dataset) Validate() error {
	if len(d.Instances) == 0 {
		return fmt.Errorf("dataset %q has no instances", d.Name)
	}
	vars := d.Instances[0].NumVars()
	classes := d.NumClasses()
	for i, in := range d.Instances {
		if in.NumVars() != vars {
			return fmt.Errorf("dataset %q: instance %d has %d variables, want %d", d.Name, i, in.NumVars(), vars)
		}
		if in.NumVars() == 0 {
			return fmt.Errorf("dataset %q: instance %d has no variables", d.Name, i)
		}
		l := len(in.Values[0])
		if l == 0 {
			return fmt.Errorf("dataset %q: instance %d is empty", d.Name, i)
		}
		for v, row := range in.Values {
			if len(row) != l {
				return fmt.Errorf("dataset %q: instance %d variable %d has length %d, want %d", d.Name, i, v, len(row), l)
			}
		}
		if in.Label < 0 || in.Label >= classes {
			return fmt.Errorf("dataset %q: instance %d label %d out of range [0,%d)", d.Name, i, in.Label, classes)
		}
	}
	return nil
}

// Interpolate repairs missing values (NaNs) in place using the paper's rule
// (Section 5.1): each gap is filled with the mean of the last value before
// the gap and the first value after it. Leading gaps are filled with the
// first observed value, trailing gaps with the last observed value. A
// variable that is entirely missing is filled with zeros.
func (d *Dataset) Interpolate() {
	for _, in := range d.Instances {
		for _, row := range in.Values {
			interpolateRow(row)
		}
	}
}

func interpolateRow(row []float64) {
	n := len(row)
	i := 0
	for i < n {
		if !math.IsNaN(row[i]) {
			i++
			continue
		}
		// Locate the gap [i, j).
		j := i
		for j < n && math.IsNaN(row[j]) {
			j++
		}
		var fill float64
		switch {
		case i == 0 && j == n:
			fill = 0
		case i == 0:
			fill = row[j]
		case j == n:
			fill = row[i-1]
		default:
			fill = (row[i-1] + row[j]) / 2
		}
		for k := i; k < j; k++ {
			row[k] = fill
		}
		i = j
	}
}

// PadToLength extends every instance to length L in place by repeating its
// last observed value. It is used to feed varying-length datasets (PLAID)
// to algorithms that require rectangular input, mirroring the framework's
// handling of unequal-length series.
func (d *Dataset) PadToLength(L int) {
	for i := range d.Instances {
		in := &d.Instances[i]
		for v, row := range in.Values {
			if len(row) >= L {
				continue
			}
			padded := make([]float64, L)
			copy(padded, row)
			last := 0.0
			if len(row) > 0 {
				last = row[len(row)-1]
			}
			for k := len(row); k < L; k++ {
				padded[k] = last
			}
			in.Values[v] = padded
		}
	}
}

// ZNormalizeRow normalizes a single series in place to zero mean and unit
// standard deviation; constant rows become all zeros.
func ZNormalizeRow(row []float64) {
	n := float64(len(row))
	if n == 0 {
		return
	}
	var sum float64
	for _, v := range row {
		sum += v
	}
	mean := sum / n
	var ss float64
	for _, v := range row {
		diff := v - mean
		ss += diff * diff
	}
	std := math.Sqrt(ss / n)
	if std < 1e-12 {
		for i := range row {
			row[i] = 0
		}
		return
	}
	for i := range row {
		row[i] = (row[i] - mean) / std
	}
}
