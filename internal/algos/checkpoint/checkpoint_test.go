package checkpoint

import (
	"fmt"
	"testing"
)

func TestPrefixLengths(t *testing.T) {
	for _, tc := range []struct {
		length, n, minLen int
		want              []int
	}{
		{10, 4, 2, []int{3, 5, 8, 10}},
		// WEASEL needs at least 2 points.
		{40, 20, 2, []int{2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34, 36, 38, 40}},
		{3, 10, 2, []int{2, 3}},
		// ECO-K's boosted trees take a single point; more checkpoints
		// than points dedup to one per length.
		{10, 4, 1, []int{3, 5, 8, 10}},
		{3, 10, 1, []int{1, 2, 3}},
	} {
		got := Lengths(tc.length, tc.n, tc.minLen)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("Lengths(%d, %d, %d) = %v, want %v", tc.length, tc.n, tc.minLen, got, tc.want)
		}
	}
}

// never is a trigger that never stops; it records the checkpoints it saw.
type never struct{ seen []int }

func (n *never) Stop(i, _ int, _ []float64) bool {
	n.seen = append(n.seen, i)
	return false
}

// probaByLength scores checkpoint i on n points with a one-hot vote for
// class n%2, and counts the calls.
func probaByLength(calls *int) func(i, n int) []float64 {
	return func(i, n int) []float64 {
		*calls++
		p := []float64{0, 0}
		p[n%2] = 1
		return p
	}
}

func TestLastCheckpointAlwaysStops(t *testing.T) {
	trig := &never{}
	calls := 0
	m := &machine{lengths: []int{2, 4, 7}, trigger: trig, proba: probaByLength(&calls)}
	label, consumed, done := m.Advance(9)
	if label != 1 || consumed != 7 || !done {
		t.Fatalf("Advance = (%d, %d, %v), want (1, 7, true)", label, consumed, done)
	}
	if len(trig.seen) != 2 || trig.seen[0] != 0 || trig.seen[1] != 1 {
		t.Fatalf("trigger saw checkpoints %v, want [0 1] (never the last)", trig.seen)
	}
	if calls != 3 {
		t.Fatalf("%d checkpoint evaluations, want 3", calls)
	}
}

func TestMachinePendingVerdicts(t *testing.T) {
	trig := &never{}
	calls := 0
	m := &machine{lengths: []int{4, 8}, trigger: trig, proba: probaByLength(&calls)}
	// Before the first checkpoint: the first model on the whole prefix.
	if label, consumed, done := m.Advance(3); label != 1 || consumed != 3 || done {
		t.Fatalf("Advance(3) = (%d, %d, %v), want (1, 3, false)", label, consumed, done)
	}
	// After it: the last covered label, consuming the whole prefix.
	if label, consumed, done := m.Advance(5); label != 0 || consumed != 5 || done {
		t.Fatalf("Advance(5) = (%d, %d, %v), want (0, 5, false)", label, consumed, done)
	}
	before := calls
	if label, consumed, _ := m.Advance(6); label != 0 || consumed != 6 || calls != before {
		t.Fatalf("Advance(6) = (%d, %d) after %d new evaluations, want (0, 6) and none", label, consumed, calls-before)
	}
}

// stopAt stops at checkpoint k.
type stopAt int

func (k stopAt) Stop(i, _ int, _ []float64) bool { return i == int(k) }

func TestMachineStopFreezes(t *testing.T) {
	calls := 0
	m := &machine{lengths: []int{3, 6, 9}, trigger: stopAt(1), proba: probaByLength(&calls)}
	if label, consumed, done := m.Advance(8); label != 0 || consumed != 6 || !done {
		t.Fatalf("Advance(8) = (%d, %d, %v), want (0, 6, true)", label, consumed, done)
	}
	if label, consumed, done := m.Advance(9); label != 0 || consumed != 6 || !done || calls != 2 {
		t.Fatalf("Advance(9) = (%d, %d, %v) after %d evaluations, want frozen (0, 6, true) after 2", label, consumed, done, calls)
	}
}

// TestMachinePastEnd: with the past-the-end rule, a prefix shorter than
// the last checkpoint still gets a verdict from the trigger, each
// uncovered checkpoint scored at its own length, consumed clamped to the
// prefix.
func TestMachinePastEnd(t *testing.T) {
	for _, tc := range []struct {
		trigger     Trigger
		label, seen int
	}{
		{&never{}, 1, 7},
		{stopAt(1), 0, 4},
	} {
		var lens []int
		proba := func(i, n int) []float64 {
			lens = append(lens, n)
			p := []float64{0, 0}
			p[n%2] = 1
			return p
		}
		label, consumed := Classify([]int{2, 4, 7}, 3, proba, tc.trigger, true)
		if label != tc.label || consumed != 3 || lens[len(lens)-1] != tc.seen {
			t.Fatalf("%T: Classify = (%d, %d) after scoring lengths %v, want (%d, 3) ending at %d",
				tc.trigger, label, consumed, lens, tc.label, tc.seen)
		}
	}
}
