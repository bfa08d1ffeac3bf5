package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"repro"
	"repro/internal/webspace"
)

// Corpus shape. One corpus serves all four workloads; every size that the
// system's behaviour depends on is stated here, and bench/README.md says why
// each has the value it has.
const (
	sitePlayers = 8192 // 8,352 pages: the engine, not HTTP, dominates a miss
	siteYears   = 40   // 80 finals, each with a Video object to join scenes onto
	baseVideos  = 16   // broadcasts indexed by cobraindex before serving starts
	poolSources = 16   // distinct broadcasts the commit pool hard-links over
	// Three shots per broadcast: play, reaction, play. The count is odd on
	// purpose. shotdet.EstimateCourtColor lets the frames of a video vote on
	// the court colour and breaks a tie by map iteration order, so a video
	// with as many reaction frames as court frames is classified — and its
	// events found or missed — at random (seen at seed 8 with two-shot
	// videos: one indexing in ten found no events). Two court shots in three
	// never tie.
	shotsPerVideo = 3
	// Fixed shot length, so SVF sizes do not vary by seed; at 24 frames the
	// detectors miss a third of the scripted events, at 32 none.
	shotFrames = 32
)

// corpus is the generated input of one run: files on disk for the daemons,
// and the same site in memory for the harness's own oracle.
type corpus struct {
	dir       string
	seed      int64
	siteCfg   repro.SiteConfig
	site      *repro.Site
	base      []string // SVF paths, named after the site's finals videos
	poolSrc   []string // SVF paths of the distinct commit-pool broadcasts
	svfBytes  int64    // size of every SVF (they all have the same length)
	pageBytes int64    // bytes of page text the site publishes
}

// siteFlags are the daemon flags that make dlserve generate this corpus's
// site: the daemon receives the site as flags, the videos as files.
func (c *corpus) siteFlags() []string {
	return []string{
		"-players", strconv.Itoa(sitePlayers),
		"-years", strconv.Itoa(siteYears),
		"-seed", strconv.FormatInt(c.siteCfg.Seed, 10),
	}
}

// motivatingVideos lists the finals videos reached by the paper's example
// query (left-handed women who won a final) on the site.
func motivatingVideos(site *repro.Site) ([]string, error) {
	players, err := site.W.Run(webspace.MotivatingQuery())
	if err != nil {
		return nil, err
	}
	var names []string
	for _, p := range players {
		for _, fid := range p.Links["wonFinals"] {
			f, _ := site.W.Get(fid)
			for _, vid := range f.Links["video"] {
				v, _ := site.W.Get(vid)
				names = append(names, v.StringAttr("name"))
			}
		}
	}
	return names, nil
}

// generateSite derives the site from the seed. The example query must have
// an answer, so site seeds without a left-handed female champion (about one
// in 600) are skipped — still a pure function of the seed.
func generateSite(seed int64) (repro.SiteConfig, *repro.Site, []string, error) {
	for try := int64(0); try < 64; try++ {
		cfg := repro.SiteConfig{
			Players: sitePlayers, YearStart: 2001 - siteYears + 1, YearEnd: 2001,
			Seed: seed*64 + try,
		}
		site, err := repro.GenerateSite(cfg)
		if err != nil {
			return cfg, nil, nil, err
		}
		vids, err := motivatingVideos(site)
		if err != nil {
			return cfg, nil, nil, err
		}
		if len(vids) > 0 {
			return cfg, site, vids, nil
		}
	}
	return repro.SiteConfig{}, nil, nil, fmt.Errorf("no site with a left-handed female champion near seed %d", seed)
}

// generateCorpus writes the run's inputs under dir: baseVideos broadcasts
// named after finals of the site, and poolSources more for the commit pool.
// Broadcasts whose script contains a net approach are given to the finals the
// example query reaches, so the paper's scene join has something to return.
func generateCorpus(dir string, seed int64) (*corpus, error) {
	cfg, site, wanted, err := generateSite(seed)
	if err != nil {
		return nil, err
	}
	c := &corpus{dir: dir, seed: seed, siteCfg: cfg, site: site}
	for _, p := range site.Pages {
		c.pageBytes += int64(len(p.Text))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}

	const n = baseVideos + poolSources
	paths := make([]string, n)
	netPlay := make([]bool, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				paths[i] = filepath.Join(dir, fmt.Sprintf("b%02d.svf", i))
				netPlay[i], errs[i] = writeBroadcast(paths[i], seed*7919+int64(i)+1)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Name the base broadcasts: net-approach ones come first and take the
	// example query's finals, the rest take other finals in a seeded order.
	var order []int
	for _, want := range []bool{true, false} {
		for i := 0; i < baseVideos; i++ {
			if netPlay[i] == want {
				order = append(order, i)
			}
		}
	}
	nNet := 0
	for nNet < baseVideos && netPlay[order[nNet]] {
		nNet++
	}
	if nNet == 0 {
		return nil, fmt.Errorf("seed %d: no base broadcast contains a net approach", seed)
	}
	taken := map[string]bool{}
	var names []string
	for _, v := range wanted {
		if !taken[v] && len(names) < nNet {
			taken[v] = true
			names = append(names, v)
		}
	}
	var rest []string
	for year := cfg.YearStart; year <= cfg.YearEnd; year++ {
		for _, cat := range []string{"women", "men"} {
			if v := fmt.Sprintf("ausopen-%d-%s-final", year, cat); !taken[v] {
				rest = append(rest, v)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	names = append(names, rest...)
	for k, i := range order {
		dst := filepath.Join(dir, names[k]+".svf")
		if err := os.Rename(paths[i], dst); err != nil {
			return nil, err
		}
		c.base = append(c.base, dst)
	}
	c.poolSrc = paths[baseVideos:]
	info, err := os.Stat(c.base[0])
	if err != nil {
		return nil, err
	}
	c.svfBytes = info.Size()
	return c, nil
}

// writeBroadcast renders one synthetic broadcast to an SVF file and reports
// whether its ground truth contains a net-play event.
func writeBroadcast(path string, seed int64) (bool, error) {
	cfg := repro.DefaultBroadcastConfig(seed)
	cfg.Shots = shotsPerVideo
	cfg.MinShotLen, cfg.MaxShotLen = shotFrames, shotFrames
	b, err := repro.GenerateBroadcast(cfg)
	if err != nil {
		return false, err
	}
	if err := repro.WriteSVF(path, b.Frames, b.FPS); err != nil {
		return false, err
	}
	for _, e := range b.Truth.Events {
		if e.Kind == "net-play" {
			return true, nil
		}
	}
	return false, nil
}

// commitPool hard-links n one-video SVFs under fresh names over the pool's
// distinct broadcasts, in a seeded order, and returns their paths in commit
// order together with the source index of each. A longer pool begins with the
// shorter ones, so links an earlier call made are left in place.
func (c *corpus) commitPool(n int) (paths []string, src []int, err error) {
	rng := rand.New(rand.NewSource(c.seed ^ 0x5eed))
	dir := filepath.Join(c.dir, "pool")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	for i := 0; i < n; i++ {
		s := rng.Intn(len(c.poolSrc))
		p := filepath.Join(dir, fmt.Sprintf("live-%d-%03d.svf", c.seed, i))
		if err := os.Link(c.poolSrc[s], p); err != nil && !os.IsExist(err) {
			return nil, nil, err
		}
		paths, src = append(paths, p), append(src, s)
	}
	return paths, src, nil
}
