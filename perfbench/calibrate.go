package main

import (
	"math"
	"time"
)

// Host speed on a shared virtual machine drifts by ±20% over tens of
// seconds: the same trial set, run twice a minute apart, can differ
// that much in host time while process CPU time tracks wall time. A run
// cannot be made longer than the drift, so on workloads whose working
// set stays in cache the timed passes are interleaved with a
// calibration: fixed work of the same kind the simulator does —
// min-label propagation over a small and a large random CSR graph —
// written here so that no change to the program can move it. Their host
// times are reported in reference-host milliseconds: each pass's raw
// times are scaled by calNominalMS over the median of the calibrations
// taken within calWindow of the pass's midpoint (always including those
// that bracket it). The raw median trial time and the scale factors are
// recorded alongside.
//
// Measured on the reference host (quartile spread of trial_ms_p50 over
// seeds, raw → scaled): async-tiers 12.5% → 4.3% (five seeds) and
// 13.4% → 5.8% (ten); sharded-sweep 12.1% → 6.3% and 11.2% → 11.9%;
// sweep-sync 11.5% → 6.9% and 9.7% → 13.2%, and 27% → 10% in a busy
// stretch. The scaling mostly helps and never produced the largest
// spreads seen raw. On million-packed, whose trials wait on main
// memory, it did not track the drift (3.1% raw, 18.4% scaled), so that
// workload reports raw host time. A pointer chase through the
// last-level cache tracked the drift worse than no calibration, and an
// allocation burst followed the garbage collector's phase rather than
// the host.

const (
	// calNominalMS is the calibration's duration on the reference host
	// (2 vCPU Intel Xeon, go1.24).
	calNominalMS = 2.5
	calRepeats   = 3
	calWindow    = 5 * time.Second
)

// calGraph is a random graph in CSR form with per-node labels.
type calGraph struct {
	off, dat []int32
	lab, nxt []uint32
}

func newCalGraph(n int) *calGraph {
	g := &calGraph{off: make([]int32, n+1), dat: make([]int32, 4*n), lab: make([]uint32, n), nxt: make([]uint32, n)}
	h := uint64(n)*0x9e3779b97f4a7c15 + 1
	for v := 0; v < n; v++ {
		g.off[v] = int32(4 * v)
		g.lab[v] = uint32(v)
		for k := 0; k < 4; k++ {
			h ^= h << 13
			h ^= h >> 7
			h ^= h << 17
			g.dat[4*v+k] = int32(h % uint64(n))
		}
	}
	g.off[n] = int32(4 * n)
	return g
}

// propagate runs rounds of min-label propagation.
func (g *calGraph) propagate(rounds int) {
	for r := 0; r < rounds; r++ {
		for v := range g.lab {
			m := g.lab[v]
			for _, u := range g.dat[g.off[v]:g.off[v+1]] {
				if x := g.lab[u]*2654435761 + uint32(r); x < m {
					m = x
				}
			}
			g.nxt[v] = m
		}
		g.lab, g.nxt = g.nxt, g.lab
	}
}

var calSmall, calLarge *calGraph

// best returns the fastest of calRepeats runs of f in milliseconds (the
// minimum discards interrupted runs).
func best(f func()) float64 {
	b := math.Inf(1)
	for r := 0; r < calRepeats; r++ {
		t0 := time.Now()
		f()
		b = min(b, ms(time.Since(t0)))
	}
	return b
}

// calibrate runs the calibration once and returns its duration in
// milliseconds.
func calibrate() float64 {
	if calSmall == nil {
		calSmall, calLarge = newCalGraph(4096), newCalGraph(131072)
	}
	return best(func() { calSmall.propagate(20) }) +
		best(func() { calLarge.propagate(1) })
}

// factor is the scale from raw host time to reference-host time given
// the calibrations taken around an interval.
func factor(cals ...float64) float64 {
	return calNominalMS / median(cals)
}

// calPoint is one calibration and when it was taken.
type calPoint struct {
	at time.Time
	ms float64
}

// passFactor is the scale for a pass that ran from start to end,
// bracketed by calibrations taken at or before start and at or after end.
func passFactor(cal []calPoint, start, end time.Time) float64 {
	mid := start.Add(end.Sub(start) / 2)
	var xs []float64
	var before, after *calPoint
	for i := range cal {
		c := &cal[i]
		if !c.at.After(start) {
			before = c
		}
		if after == nil && !c.at.Before(end) {
			after = c
		}
		if d := c.at.Sub(mid); d <= calWindow && d >= -calWindow {
			xs = append(xs, c.ms)
		}
	}
	for _, c := range []*calPoint{before, after} {
		if c != nil && (c.at.Sub(mid) > calWindow || mid.Sub(c.at) > calWindow) {
			xs = append(xs, c.ms)
		}
	}
	return factor(xs...)
}
