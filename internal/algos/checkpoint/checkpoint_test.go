package checkpoint

import "testing"

func TestPrefixLengths(t *testing.T) {
	ps := Lengths(10, 4)
	want := []int{3, 5, 8, 10}
	if len(ps) != len(want) {
		t.Fatalf("prefixes = %v", ps)
	}
	for i := range want {
		if ps[i] != want[i] {
			t.Fatalf("prefixes = %v, want %v", ps, want)
		}
	}
	// Minimum prefix is 2 (WEASEL needs at least 2 points).
	ps = Lengths(40, 20)
	if ps[0] < 2 {
		t.Fatalf("first prefix = %d", ps[0])
	}
}

func TestPrefixLengthsMinimumTwo(t *testing.T) {
	ps := Lengths(40, 20)
	if ps[0] < 2 {
		t.Fatalf("first prefix = %d", ps[0])
	}
	last := ps[len(ps)-1]
	if last != 40 {
		t.Fatalf("last prefix = %d, want full length", last)
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
