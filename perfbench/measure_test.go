package main

import (
	"math/rand"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestTailIndexKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n, want int
		ok      bool
	}{
		{n: 0, ok: false},
		{n: 10, ok: false},
		{n: 11, want: 0, ok: true},
		{n: 20, want: 9, ok: true},
		{n: 100, want: 89, ok: true},
		{n: 1000, want: 989, ok: true}, // exactly the 99th percentile
		{n: 2000, want: 1979, ok: true},
	} {
		got, ok := tailIndex(tc.n)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("tailIndex(%d) = %d, %v; want %d, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && tc.n-1-got < 10 {
			t.Errorf("tailIndex(%d) = %d leaves %d samples beyond it", tc.n, got, tc.n-1-got)
		}
	}
}

func TestSummarizeMedianAndTail(t *testing.T) {
	var d []time.Duration
	for i := 1; i <= 20; i++ {
		d = append(d, time.Duration(i))
	}
	rand.New(rand.NewSource(1)).Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
	s := summarize(d)
	if s.p50 != 10 || s.tail != 10 || s.n != 20 {
		t.Fatalf("summarize(1..20) = %+v, want p50 10, tail 10 (ten samples beyond), n 20", s)
	}
	if s := summarize([]time.Duration{3}); s.p50 != 3 || s.tail != 0 {
		t.Fatalf("one sample: %+v, want p50 3 and no tail", s)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

func TestParseProcStatSteal(t *testing.T) {
	const before = "cpu  100 10 50 900 5 3 2 35 0 0\ncpu0 50 5 25 450 2 1 1 17 0 0\nintr 1\n"
	const after = "cpu  160 10 70 950 5 4 2 55 0 0\ncpu0 80 5 35 475 2 2 1 27 0 0\n"
	h0, err := parseProcStat(strings.NewReader(before))
	if err != nil {
		t.Fatal(err)
	}
	if h0.busy != 100+10+50+3+2+35 || h0.steal != 35 {
		t.Fatalf("parsed %+v, want busy 200 and steal 35", h0)
	}
	h1, err := parseProcStat(strings.NewReader(after))
	if err != nil {
		t.Fatal(err)
	}
	// Busy grew by 60+20+1+20 = 101 ticks, 20 of them stolen.
	if got, want := h1.stealShareSince(h0), 20.0/101; got != want {
		t.Fatalf("steal share = %v, want %v", got, want)
	}
	if got := h0.stealShareSince(h0); got != 0 {
		t.Fatalf("steal share of an idle interval = %v, want 0", got)
	}
	for _, bad := range []string{"", "cpu 1 2 3\n", "cpu 1 2 3 4 5 6 7 x\n"} {
		if _, err := parseProcStat(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProcStat(%q) succeeded, want an error", bad)
		}
	}
}

func TestRusageCPUDelta(t *testing.T) {
	ru := syscall.Rusage{
		Utime: syscall.Timeval{Sec: 1, Usec: 500000},
		Stime: syscall.Timeval{Sec: 0, Usec: 250000},
	}
	if got := rusageCPU(ru); got != 1750*time.Millisecond {
		t.Fatalf("rusageCPU = %v, want 1.75s", got)
	}
	m := startMeter()
	x := 0
	for deadline := time.Now().Add(50 * time.Millisecond); time.Now().Before(deadline); {
		x++
	}
	iv := m.stop()
	if iv.cpu <= 0 || iv.wall < 50*time.Millisecond {
		t.Fatalf("a 50ms busy loop measured cpu %v, wall %v (%d spins)", iv.cpu, iv.wall, x)
	}
}
