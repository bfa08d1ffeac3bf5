// Command hostnoise measures how steadily this host runs a fixed piece of
// work: a register-only loop (no memory traffic, no system calls, one thread)
// is timed pass by pass, and the passes are cut into blocks as long as a
// benchmark phase. It prints, for the blocks' medians and for their fast-edge
// percentiles, the spread between blocks. On a shared host the median drifts
// by several per cent from block to block while the fast edge stays put:
// interference only adds time. That is why dlbench gates quiet-decile
// statistics (see ../README.md, "What repeats on this host").
//
//	go run ./hostnoise -seconds 300 -block 12
package main

import (
	"flag"
	"fmt"
	"sort"
	"time"
)

var sink uint64

// pass is the fixed work: ten million xorshift steps, about 18 ms.
func pass() {
	x := uint64(88172645463325252)
	for i := 0; i < 10_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	sink += x
}

func percentile(sorted []float64, p float64) float64 {
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(rank)
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (sorted[hi]-sorted[lo])*(rank-float64(lo))
}

func main() {
	seconds := flag.Int("seconds", 300, "how long to measure")
	block := flag.Int("block", 12, "block length in seconds")
	flag.Parse()

	stats := map[string][]float64{}
	names := []string{"p5", "p10", "p25", "median", "mean"}
	start := time.Now()
	for b := 0; time.Since(start) < time.Duration(*seconds)*time.Second; b++ {
		var ms []float64
		total := 0.0
		for blockStart := time.Now(); time.Since(blockStart) < time.Duration(*block)*time.Second; {
			t0 := time.Now()
			pass()
			d := float64(time.Since(t0)) / float64(time.Millisecond)
			ms, total = append(ms, d), total+d
		}
		sort.Float64s(ms)
		for _, n := range names[:3] {
			var p float64
			fmt.Sscanf(n, "p%f", &p)
			stats[n] = append(stats[n], percentile(ms, p))
		}
		stats["median"] = append(stats["median"], percentile(ms, 50))
		stats["mean"] = append(stats["mean"], total/float64(len(ms)))
	}
	fmt.Printf("%d blocks of %d s; ms per pass, and the spread of each statistic between blocks\n", len(stats["mean"]), *block)
	for _, n := range names {
		v := stats[n]
		sort.Float64s(v)
		q1, q2, q3 := percentile(v, 25), percentile(v, 50), percentile(v, 75)
		fmt.Printf("  %-7s median %7.3f  IQR/median %5.2f%%  range/median %5.1f%%\n",
			n, q2, 100*(q3-q1)/q2, 100*(v[len(v)-1]-v[0])/q2)
	}
}
