package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 6}, {90, 10}, {100, 11}, {25, 3.5}} {
		if got := percentile(sorted, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty sample must be NaN")
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

func TestStatsOfAPhase(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	from, to := mark{at(0), 50}, mark{at(1600), 450}
	samples := []sample{{at(-5), 99, 0}} // warm-up: completed before the phase
	// 480 ops, alternately of class 0 (2 ms) and class 1 (6 ms): 240 of each,
	// so phaseWindows = 60 windows of 4 per class. A disturbance doubles the
	// latency of every op in the second quarter of the phase.
	for i := 0; i < 480; i++ {
		ms := 2 + 4*float64(i%2)
		if i >= 120 && i < 240 {
			ms *= 2
		}
		samples = append(samples, sample{at(3 * (i + 1)), ms, i % 2})
	}
	samples = append(samples, sample{at(1600), 99, 0}, sample{at(1700), 99, 1}) // drain
	// Handed over out of order, as the clients' slices are.
	samples[1], samples[200] = samples[200], samples[1]
	st := statsOf(from, to, samples, nil)
	if st.ops != 480 {
		t.Errorf("ops = %d, want 480 (warm-up and drain dropped)", st.ops)
	}
	if st.opsPerS != 300 || st.cpuMs != 400 {
		t.Errorf("pooled throughput = %v, cpu = %v, want 300 and 400", st.opsPerS, st.cpuMs)
	}
	// The quiet deciles ignore the disturbed quarter: 2 ms and 6 ms, half the
	// ops each.
	if st.quietMs != 4 {
		t.Errorf("quiet latency = %v ms, want 4", st.quietMs)
	}
	// Weighed as the workload defines its mix, not as the phase drew it.
	if got := statsOf(from, to, samples, map[int]float64{0: 0.75, 1: 0.25}).quietMs; got != 3 {
		t.Errorf("quiet latency at 3:1 = %v ms, want 3", got)
	}
	// A class the phase never saw leaves its weight to the others.
	if got := statsOf(from, to, samples, map[int]float64{0: 0.25, 1: 0.25, 2: 0.5}).quietMs; got != 4 {
		t.Errorf("quiet latency with an unseen class = %v ms, want 4", got)
	}
	if st.p50 != 5 || st.p90 != 12 {
		t.Errorf("pooled p50 = %v, p90 = %v, want 5 and 12", st.p50, st.p90)
	}
	if len(st.classP50) != 2 || st.classP50[0] != 2 || st.classP50[1] != 6 {
		t.Errorf("medians per class = %v, want 2 and 6", st.classP50)
	}
	idle := statsOf(from, mark{at(1000), 50}, nil, nil)
	if idle.ops != 0 || !math.IsNaN(idle.quietMs) {
		t.Errorf("a phase without ops: %+v", idle)
	}
}

func TestWindowMeans(t *testing.T) {
	var v []float64
	for i := 1; i <= 10; i++ {
		v = append(v, float64(i))
	}
	if got := windowMeans(v, 3); len(got) != 3 || got[0] != 2 || got[1] != 5 || got[2] != 8 {
		t.Errorf("three windows of three, the tenth value left out: got %v", got)
	}
	if got := windowMeans(v, 60); len(got) != 10 || got[9] != 10 {
		t.Errorf("fewer values than windows: one to a window, got %v", got)
	}
	if got := windowMeans(nil, 60); len(got) != 0 {
		t.Errorf("no values: got %v", got)
	}
}
