package testenv

import (
	"math"
	"strings"
	"testing"
)

func TestAlternateOrdersPairs(t *testing.T) {
	var calls []string
	var next int64
	tick := func(side string) func() int64 {
		return func() int64 {
			calls = append(calls, side)
			next += 10
			return next
		}
	}
	base, opt := alternate(3, tick("b"), tick("o"))
	if got := strings.Join(calls, ""); got != "bobobo" {
		t.Fatalf("call order %q, want bobobo", got)
	}
	for i, want := range [][2]int64{{10, 20}, {30, 40}, {50, 60}} {
		if base[i] != want[0] || opt[i] != want[1] {
			t.Fatalf("pair %d = (%d, %d), want %v", i, base[i], opt[i], want)
		}
	}
}

func TestMedianSpeedup(t *testing.T) {
	cases := []struct {
		name       string
		base, opt  []int64
		floor      float64
		wantMedian float64
		wantPass   bool
	}{
		{"odd k", []int64{900, 300, 500, 800, 700, 400, 600}, []int64{100, 100, 100, 100, 100, 100, 100}, 6, 6, true},
		{"even k averages the middle two", []int64{100, 400, 200, 300, 800, 600, 500, 700}, []int64{100, 100, 100, 100, 100, 100, 100, 100}, 4.5, 4.5, true},
		{"one outlier pair moves nothing", []int64{1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000}, []int64{100, 100, 100, 100, 2000, 100, 100, 100, 100}, 8.371, 10, true},
		{"below the floor", []int64{150, 150, 150, 150, 150, 150, 150}, []int64{100, 100, 100, 100, 100, 100, 100}, 1.6, 1.5, false},
		{"lost optimization", []int64{100, 105, 95, 100, 102, 98, 100}, []int64{100, 100, 100, 100, 100, 100, 100}, 1.185, 1, false},
	}
	for _, c := range cases {
		v, err := medianSpeedup(c.base, c.opt, c.floor)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if v.median != c.wantMedian || v.pass() != c.wantPass || len(v.ratios) != len(c.base) {
			t.Fatalf("%s: %v, pass %v; want median %v, pass %v", c.name, v, v.pass(), c.wantMedian, c.wantPass)
		}
	}
}

func TestMedianSpeedupZeroNsGuard(t *testing.T) {
	for _, c := range []struct{ base, opt []int64 }{
		{[]int64{500, 500, 500}, []int64{100, 0, 100}},
		{[]int64{500, 0, 500}, []int64{100, 100, 100}},
	} {
		v, err := medianSpeedup(c.base, c.opt, 2)
		if err == nil || !math.IsNaN(v.median) || v.pass() {
			t.Fatalf("%v / %v: err %v, verdict %v; want an error and a NaN median that fails", c.base, c.opt, err, v)
		}
	}
}

func TestSpeedupMessageListsEveryPair(t *testing.T) {
	v, err := medianSpeedup([]int64{500, 900, 100, 700, 300, 600, 800}, []int64{100, 100, 100, 100, 100, 100, 100}, 8.371)
	if err != nil {
		t.Fatal(err)
	}
	const want = "median 6.000x, floor 8.371x, 7 per-pair ratios [5.00 9.00 1.00 7.00 3.00 6.00 8.00]"
	if got := v.String(); got != want {
		t.Fatalf("message %q, want %q", got, want)
	}
	if speedupPairs < 7 {
		t.Fatalf("speedupPairs = %d, the gate needs k >= 7", speedupPairs)
	}
}
