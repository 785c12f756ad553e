package main

import (
	"math"
	"slices"
	"sort"
	"syscall"
	"time"
)

// sample is one timed operation on both clocks. Wall time includes whatever
// the hypervisor steals; process-CPU time (user+sys of every thread, GC
// included) does not, so workers=1 in-process work is reported from cpu and
// latency, workers=2 and HTTP work from wall.
type sample struct {
	wall, cpu time.Duration
}

// cpuNow returns the process CPU time consumed so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type stopwatch struct {
	t0 time.Time
	c0 time.Duration
}

// startWatch reads the CPU clock first and the wall clock last, and stop
// reads them in the opposite order, so the wall interval excludes both
// getrusage calls.
func startWatch() stopwatch {
	c := cpuNow()
	return stopwatch{t0: time.Now(), c0: c}
}

func (s stopwatch) stop() sample {
	w := time.Since(s.t0)
	return sample{wall: w, cpu: cpuNow() - s.c0}
}

type clock int

const (
	cpuClock clock = iota
	wallClock
)

func (c clock) String() string {
	if c == wallClock {
		return "wall"
	}
	return "cpu"
}

// seconds projects samples onto one clock.
func seconds(ss []sample, c clock) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		d := s.cpu
		if c == wallClock {
			d = s.wall
		}
		out[i] = d.Seconds()
	}
	return out
}

// quartiles returns the cut points Python's statistics.quantiles(xs, n=4)
// gives (the "exclusive" method), so spreads computed here match the ones
// the driver computes. Fewer than two values have no spread: all three cut
// points are the value itself (0 for none).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// fast is the statistic every gated timing reports: the smallest of its
// samples. The sandbox's noisy-neighbour episodes (README.md, "Clocks") slow
// memory-bound code 1.7-2x on BOTH clocks, for seconds at best and for whole
// runs at worst; they only ever add time, so the fastest sample estimates
// what the program itself costs. Samples are made comparable first: passes
// over a pool, stratified bounds, a collected heap before heavy operations.
func fast(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// ratio is a/b, or 0 when b is 0 (a metric that could not be measured).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
