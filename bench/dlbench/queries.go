package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"sort"
	"strings"

	"repro"
)

// op is one search request of a workload: the query string of a
// GET /v2/search. pool is the op's index in the workload's query pool, or -1
// when the query is unique to this op. class is the lane of a ranked query
// (an index into classNames); a pooled query has none until it is answered,
// from the result cache or not.
type op struct {
	query string
	pool  int
	class int
}

// Classes of operations, whose medians a run reports side by side: the three
// ranked lanes, and cache hit or miss for the pooled queries of content-mix.
const (
	classLexical = iota
	classVector
	classHybrid
	classHit
	classMiss
)

var classNames = []string{"lexical", "vector", "hybrid", "hit", "miss"}

// mix is splitmix64 over (seed, i, k): the k-th random word of the i-th op
// of a seed. Op sequences are pure functions of the seed, with no generator
// state to share between client goroutines.
func mix(seed int64, i, k int) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + uint64(k)*0x94d049bb133111eb
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Words of the site generator's page templates. bioWords occur on every
// player page, so a query holding one ranks all 8,192 of them — the full
// list the engine builds (and dlserve caches) behind a ten-item page.
var (
	bioWords    = []string{"professional", "tennis", "player", "powerful", "baseline", "teenager", "tour", "joined"}
	finalsWords = []string{"defeated", "singles", "championship", "melbourne", "title", "dream", "childhood", "crowd", "amazing", "tonight"}
	countries   = []string{"Australia", "Belgium", "Croatia", "France", "Germany", "Japan", "Netherlands", "Russia", "Spain", "Sweden", "Switzerland", "USA"}
	// laneMix is ISSUE 12's mix, lexical : vector : hybrid = 2 : 1 : 1; an
	// op draws one of the four at random. The ratio is the issue's choice, not
	// taken from an observed query log.
	laneMix = []int{classLexical, classLexical, classVector, classHybrid}
)

// rankedStream generates the ranked-miss and ranked-cluster query stream:
// every query is unique, so the result cache never hits.
type rankedStream struct {
	seed  int64
	names []string // lower-cased first and last names of the site's players
}

func newRankedStream(c *corpus) *rankedStream {
	s := &rankedStream{seed: c.seed}
	for _, id := range c.site.W.All("Player") {
		p, _ := c.site.W.Get(id)
		s.names = append(s.names, strings.Fields(strings.ToLower(p.StringAttr("name")))...)
	}
	return s
}

// weights are the lanes' shares of the stream.
func (s *rankedStream) weights() map[int]float64 {
	w := map[int]float64{}
	for _, lane := range laneMix {
		w[lane] += 1 / float64(len(laneMix))
	}
	return w
}

// at returns the i-th query: one bio word, one country, one player-name word
// and on every other op a finals word, plus a token unique to (seed, i). The
// lane is drawn per op from the seed, like everything else, so lanes arrive
// in no fixed order. Half the ops being lexical, the cheapest lane, the
// median of the whole stream sits on the seam between the lexical and the
// vector latency modes: the run reports a median per lane beside it.
func (s *rankedStream) at(i int) op {
	return s.atLane(i, laneMix[mix(s.seed, i, 5)%uint64(len(laneMix))])
}

// atLane is the i-th query sent down a given lane.
func (s *rankedStream) atLane(i, lane int) op {
	terms := []string{
		bioWords[mix(s.seed, i, 0)%uint64(len(bioWords))],
		strings.ToLower(countries[mix(s.seed, i, 1)%uint64(len(countries))]),
		s.names[mix(s.seed, i, 2)%uint64(len(s.names))],
	}
	if mix(s.seed, i, 3)%2 == 0 {
		terms = append(terms, finalsWords[mix(s.seed, i, 4)%uint64(len(finalsWords))])
	}
	terms = append(terms, fmt.Sprintf("zq%dx%d", s.seed, i))
	v := url.Values{"kw": {strings.Join(terms, " ")}, "limit": {"10"}}
	if lane != classLexical {
		v.Set("kind", classNames[lane])
	}
	return op{query: v.Encode(), pool: -1, class: lane}
}

// Content-mix pool shape: distinct queries drawn with zipfian popularity.
// Pool size and exponent are tuned so that dlserve's default 1,024-entry
// result cache answers 65–75 % of the stream (measured; see README).
const (
	contentPoolSize = 8192
	contentZipfS    = 1.0
	contentHitRatio = 0.70 // what the tuning aims at; a seed's stream measures 0.68-0.71
)

// contentMix generates the content-mix stream: combined concept + content +
// keyword queries in the paper's query language, and raw scene lookups.
type contentMix struct {
	seed int64
	pool []string  // query strings, most popular first
	cdf  []float64 // cumulative popularity of the pool
}

func newContentMix(seed int64) *contentMix {
	var all []string
	sexes := []string{"", "female", "male"}
	hands := []string{"", "left", "right"}
	scenes := []string{"", "net-play", "rally", "service"}
	ranks := []string{"", "champion interview", "melbourne crowd", "powerful baseline game",
		"hard-fought match", "childhood dream", "professional tour"}
	for _, sex := range sexes {
		for _, hand := range hands {
			for ci := -1; ci < len(countries); ci++ {
				for _, won := range []bool{false, true} {
					var conds []string
					if sex != "" {
						conds = append(conds, fmt.Sprintf("sex = %q", sex))
					}
					if hand != "" {
						conds = append(conds, fmt.Sprintf("handedness = %q", hand))
					}
					if ci >= 0 {
						conds = append(conds, fmt.Sprintf("country = %q", countries[ci]))
					}
					if won {
						conds = append(conds, "exists wonFinals")
					}
					head := "find Player"
					if len(conds) > 0 {
						head += " where " + strings.Join(conds, " and ")
					}
					for _, scene := range scenes {
						for _, rank := range ranks {
							for _, limit := range []int{5, 10, 20} {
								q := head
								if scene != "" {
									q += fmt.Sprintf(" scenes %q via playedFinals.video", scene)
								}
								if rank != "" {
									q += fmt.Sprintf(" rank %q", rank)
								}
								q += fmt.Sprintf(" limit %d", limit)
								all = append(all, url.Values{"q": {q}}.Encode())
							}
						}
					}
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	m := &contentMix{seed: seed, pool: all[:contentPoolSize]}
	// Raw scene lookups: three event kinds at three page sizes, at seeded
	// ranks of the popularity order.
	for _, kind := range []string{"net-play", "rally", "service"} {
		for _, limit := range []string{"10", "20", "50"} {
			m.pool[rng.Intn(len(m.pool))] = url.Values{"kind": {kind}, "limit": {limit}}.Encode()
		}
	}
	m.cdf = make([]float64, len(m.pool))
	sum := 0.0
	for r := range m.pool {
		sum += 1 / math.Pow(float64(r+1), contentZipfS)
		m.cdf[r] = sum
	}
	for r := range m.cdf {
		m.cdf[r] /= sum
	}
	return m
}

// weights are the shares of cache hits and misses the pool is tuned to.
func (m *contentMix) weights() map[int]float64 {
	return map[int]float64{classHit: contentHitRatio, classMiss: 1 - contentHitRatio}
}

// at returns the i-th query of the stream: a zipfian draw from the pool.
func (m *contentMix) at(i int) op {
	u := float64(mix(m.seed, i, 0)>>11) / (1 << 53)
	r := sort.SearchFloat64s(m.cdf, u)
	if r >= len(m.pool) {
		r = len(m.pool) - 1
	}
	return op{query: m.pool[r], pool: r, class: -1}
}

// readerSlice is the fixed 64-query slice of content-mix the ingest-commit
// reader cycles: the first 64 draws of the stream.
type readerSlice struct{ ops []op }

func newReaderSlice(m *contentMix) *readerSlice {
	s := &readerSlice{}
	for i := 0; i < 64; i++ {
		s.ops = append(s.ops, m.at(i))
	}
	return s
}

func (s *readerSlice) at(i int) op { return s.ops[i%len(s.ops)] }

// weights: how often the reader hits the cache depends on how often a commit
// empties it, so its classes are weighed as observed.
func (s *readerSlice) weights() map[int]float64 { return nil }

// stream is a workload's op sequence, a pure function of the seed, and the
// shares of its ops that its classes are defined to have.
type stream interface {
	at(i int) op
	weights() map[int]float64
}

// motivatingOp is the paper's running example as a request.
func motivatingOp() op {
	return op{query: url.Values{"q": {repro.MotivatingQuery()}}.Encode(), pool: -1, class: -1}
}
