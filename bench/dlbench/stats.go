package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of sorted values by
// linear interpolation between closest ranks; NaN for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(rank-float64(lo))
}

// quantileOf returns the p-th percentile of values without reordering the
// caller's slice.
func quantileOf(values []float64, p float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return percentile(s, p)
}

func median(values []float64) float64 { return quantileOf(values, 50) }

func sum(values []float64) float64 {
	s := 0.0
	for _, v := range values {
		s += v
	}
	return s
}

// The statistics of time meant for comparing two commits are quiet deciles.
// On this kind of host (two virtual cores shared with other tenants)
// interference only ever adds time, in bursts: a register-only loop timed for
// five minutes reads 18.0 ms per pass at its fast edge and anything up to
// 60 ms above it; over 12 s blocks its 5th percentile repeats within 0.5 %,
// its median within 6.7 % (bench/README.md; bench/hostnoise measures it). So
// the ops of a phase are cut into windows of equal work — the ops of one
// class, in completion order, phaseWindows windows to a class — and a class's
// quiet latency is the decile of its windows' mean latencies on the fast
// side: what the system does in the tenth of the run the host disturbed
// least. Classes (lanes of a ranked stream, cache hits and misses of a pooled
// one, the broadcasts of the commit pool) are kept apart because their costs
// differ, some several times over, and a window of mixed ops would vary with
// the mix it happened to draw.
const (
	phaseWindows = 60
	quietDecile  = 10
)

// sample is one completed operation: when it finished, how long it took,
// and which class of the workload's mix it belongs to (-1: the workload has
// only one).
type sample struct {
	done  time.Time
	ms    float64
	class int
}

// mark is the state read at a phase boundary: the time and the server CPU
// consumed so far.
type mark struct {
	at    time.Time
	cpuMs float64
}

// phaseStats is what one measured phase reports.
type phaseStats struct {
	// quietMs is the quiet mean latency: every class's quiet latency,
	// weighted by the class's share of the workload's ops.
	quietMs  float64
	p50, p90 float64 // over every op of the phase, pooled
	opsPerS  float64 // ops completed per second of the phase
	cpuMs    float64 // server CPU the phase consumed
	ops      int
	classP50 map[int]float64 // pooled median per class
}

// statsOf computes a phase's statistics from its two boundary marks and the
// samples of its clients. Samples that completed outside [from, to) belong
// to warm-up or drain and are dropped. weights are the classes' shares of the
// workload's ops as the workload defines them (the share a phase happens to
// draw differs a little from seed to seed, and would move the weighted mean
// with it); nil weighs every class by the share observed.
func statsOf(from, to mark, samples []sample, weights map[int]float64) phaseStats {
	var in []sample
	for _, s := range samples {
		if !s.done.Before(from.at) && s.done.Before(to.at) {
			in = append(in, s)
		}
	}
	sort.Slice(in, func(a, b int) bool { return in[a].done.Before(in[b].done) })
	st := phaseStats{
		ops: len(in), cpuMs: to.cpuMs - from.cpuMs,
		opsPerS:  float64(len(in)) / to.at.Sub(from.at).Seconds(),
		classP50: map[int]float64{},
	}
	lat := make([]float64, len(in))
	byClass := map[int][]float64{}
	for i, s := range in {
		lat[i] = s.ms
		byClass[s.class] = append(byClass[s.class], s.ms)
	}
	total := 0.0
	for class, ms := range byClass {
		w := float64(len(ms)) / float64(len(in))
		if weights != nil {
			w = weights[class]
		}
		st.quietMs += w * quantileOf(windowMeans(ms, phaseWindows), quietDecile)
		total += w
		st.classP50[class] = median(ms)
	}
	st.quietMs /= total // NaN for a phase without ops; 1 unless a class went unseen
	sort.Float64s(lat)
	st.p50, st.p90 = percentile(lat, 50), percentile(lat, 90)
	return st
}

// windowMeans cuts values into at most n windows of equal length, in order,
// and returns each window's mean. Values beyond the last whole window are
// left out.
func windowMeans(values []float64, n int) []float64 {
	per := max(1, len(values)/n)
	var means []float64
	for k := 0; (k+1)*per <= len(values); k++ {
		means = append(means, sum(values[k*per:(k+1)*per])/float64(per))
	}
	return means
}
