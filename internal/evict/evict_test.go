package evict

import (
	"testing"
	"time"
)

func TestNilClockFallsBackToWallClock(t *testing.T) {
	var c Clock
	before := time.Now()
	got := c.Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Fatalf("nil Clock.Now() = %v, want within [%v, %v]", got, before, after)
	}
	p := Policy{TTL: time.Minute}
	before = time.Now()
	got = p.Now()
	after = time.Now()
	if got.Before(before) || got.After(after) {
		t.Fatalf("Policy{Clock: nil}.Now() = %v, want within [%v, %v]", got, before, after)
	}
}

func TestCutoffIsInjectedNowMinusTTL(t *testing.T) {
	now := time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC)
	p := Policy{TTL: 90 * time.Second, Clock: func() time.Time { return now }}
	if got := p.Now(); !got.Equal(now) {
		t.Fatalf("Now() = %v, want the injected %v", got, now)
	}
	if got, want := p.Cutoff(), now.Add(-90*time.Second); !got.Equal(want) {
		t.Fatalf("Cutoff() = %v, want %v", got, want)
	}
	// The cutoff follows the clock as it advances.
	now = now.Add(time.Hour)
	if got, want := p.Cutoff(), now.Add(-90*time.Second); !got.Equal(want) {
		t.Fatalf("Cutoff() after advancing = %v, want %v", got, want)
	}
}

func TestExpiredAtIsStrict(t *testing.T) {
	cutoff := time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		lastSeen time.Time
		want     bool
	}{
		{cutoff.Add(-time.Nanosecond), true},
		{cutoff, false}, // seen exactly at the cutoff is not yet idle
		{cutoff.Add(time.Nanosecond), false},
	}
	for _, c := range cases {
		if got := ExpiredAt(c.lastSeen, cutoff); got != c.want {
			t.Errorf("ExpiredAt(%v, %v) = %v, want %v", c.lastSeen, cutoff, got, c.want)
		}
	}
}
