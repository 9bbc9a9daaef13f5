package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/goetsc/goetsc/internal/metrics"
	"github.com/goetsc/goetsc/internal/stats"
)

// cpuTime is the process's user+system CPU time so far (getrusage
// RUSAGE_SELF). Time stolen by the hypervisor is not charged to the
// process, which is what makes CPU per operation steadier than any
// wall-clock rate on a shared host.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return rusageCPU(ru)
}

// rusageCPU sums user and system time of one getrusage sample.
func rusageCPU(ru syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano()) + time.Duration(ru.Stime.Nano())
}

// meter brackets one measured interval in wall and process CPU time.
type meter struct {
	wall0 time.Time
	cpu0  time.Duration
}

func startMeter() meter { return meter{wall0: time.Now(), cpu0: cpuTime()} }

// interval is what one meter saw between start and stop.
type interval struct{ wall, cpu time.Duration }

func (m meter) stop() interval {
	return interval{wall: time.Since(m.wall0), cpu: cpuTime() - m.cpu0}
}

// hostCPU is the aggregate "cpu" line of /proc/stat, in clock ticks.
type hostCPU struct {
	busy, steal uint64 // busy includes steal; idle and iowait are excluded
	valid       bool
}

// stealShareSince is the share of busy host CPU time the hypervisor
// stole between two samples: Δsteal / Δ(user+nice+system+irq+softirq+steal).
// It returns 0 when the host was idle in between.
func (h hostCPU) stealShareSince(prev hostCPU) float64 {
	if h.busy <= prev.busy {
		return 0
	}
	return float64(h.steal-prev.steal) / float64(h.busy-prev.busy)
}

func readHostCPU() (hostCPU, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	defer f.Close()
	return parseProcStat(f)
}

// parseProcStat reads the first, aggregate "cpu" line of /proc/stat:
// user nice system idle iowait irq softirq steal [guest guest_nice].
// Guest time is already counted in user and nice, so it is not added.
func parseProcStat(r io.Reader) (hostCPU, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || fields[0] != "cpu" {
			continue
		}
		if len(fields) < 9 {
			return hostCPU{}, fmt.Errorf("/proc/stat: cpu line has %d fields, want at least 9", len(fields))
		}
		var v [8]uint64
		for i := range v {
			n, err := strconv.ParseUint(fields[i+1], 10, 64)
			if err != nil {
				return hostCPU{}, fmt.Errorf("/proc/stat: field %d: %w", i+1, err)
			}
			v[i] = n
		}
		user, nice, system, irq, softirq, steal := v[0], v[1], v[2], v[5], v[6], v[7]
		return hostCPU{busy: user + nice + system + irq + softirq + steal, steal: steal, valid: true}, nil
	}
	if err := sc.Err(); err != nil {
		return hostCPU{}, err
	}
	return hostCPU{}, fmt.Errorf("/proc/stat: no aggregate cpu line")
}

// Set-up repeats within a run: at least minSetupRounds rounds, and more,
// up to maxSetupRounds, until minSetupTime has passed.
const (
	minSetupRounds = 9
	maxSetupRounds = 1000
	minSetupTime   = time.Second
)

// moreSetups reports whether another set-up round is due after done
// rounds that started at start.
func moreSetups(done int, start time.Time) bool {
	return done < minSetupRounds || (done < maxSetupRounds && time.Since(start) < minSetupTime)
}

// setupCPU runs round until moreSetups says stop and returns the median
// process CPU time of one round: the work set-up does, which host steal
// does not inflate the way it inflates wall time. The median leaves out
// rounds that a burst on the host slowed down.
func setupCPU(round func() error) (time.Duration, error) {
	var rounds []time.Duration
	for start := time.Now(); moreSetups(len(rounds), start); {
		cpu0 := cpuTime()
		if err := round(); err != nil {
			return 0, err
		}
		rounds = append(rounds, cpuTime()-cpu0)
	}
	return medianDuration(rounds), nil
}

// quantile returns the nearest-rank q-quantile of sorted samples: the
// smallest value with at least q·n samples at or below it.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tailIndex is the index of the reported tail sample: the 99th
// percentile, lowered until at least ten samples lie beyond it. It
// reports false when there are too few samples for any tail.
func tailIndex(n int) (int, bool) {
	if n < 11 {
		return 0, false
	}
	i := int(math.Ceil(0.99*float64(n))) - 1
	if i > n-11 {
		i = n - 11
	}
	return i, true
}

// latencies collects one sample set. add is safe for concurrent use.
type latencies struct {
	mu sync.Mutex
	d  []time.Duration
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.d = append(l.d, d)
	l.mu.Unlock()
}

// summary is the median, the tail sample (see tailIndex) and the count.
type summary struct {
	p50, tail time.Duration
	n         int
}

func (l *latencies) summary() summary {
	l.mu.Lock()
	s := append([]time.Duration(nil), l.d...)
	l.mu.Unlock()
	return summarize(s)
}

func summarize(s []time.Duration) summary {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := summary{p50: quantile(s, 0.5), n: len(s)}
	if i, ok := tailIndex(len(s)); ok {
		out.tail = s[i]
	}
	return out
}

// median of float samples (mean of the middle two for even counts; NaN
// for none, which render refuses to print).
func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }

// medianDuration is median over duration samples.
func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quality accumulates accuracy and earliness over decisions.
type quality struct {
	n, correct int
	earliness  float64
}

func (q *quality) add(correct bool, consumed, length int) {
	q.n++
	if correct {
		q.correct++
	}
	if length > 0 {
		q.earliness += float64(consumed) / float64(length)
	}
}

func (q quality) hm() float64 {
	if q.n == 0 {
		return 0
	}
	return metrics.HarmonicMean(float64(q.correct)/float64(q.n), q.earliness/float64(q.n))
}
