package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"repro/internal/eval"
	"repro/internal/router"
	"repro/internal/synth"
	"repro/internal/webspace"
)

// The E9 corpus asks the paper's motivating query — left-handed female
// champions, with video of them at the net — of libraries indexed from
// pixels. Its site is E8's. Every women's final a left-handed woman played
// gets a scripted synth broadcast, so its net-play intervals are known. Each
// hardTracked difficulty renders the broadcasts through derive, writes them
// with WriteSVF under the final's video name and indexes them through
// Library.IndexBatch with Path jobs, as cobraindex does.

// e9Seed seeds the broadcast of the final with object ID id: e9Seed + id.
const e9Seed = 13000

// e9Broadcast is a final's broadcast at w×h: three 32-frame shots, the
// shape of dlbench's and the ingest golden corpus's broadcasts.
func e9Broadcast(final int64, w, h int) (*synth.Video, error) {
	cfg := synth.DefaultConfig(e9Seed + final)
	cfg.W, cfg.H = w, h
	cfg.Shots, cfg.MinShotLen, cfg.MaxShotLen = 3, 32, 32
	return synth.Generate(cfg)
}

// An e9Column is the corpus under one difficulty: the digital library over
// its index, indexed at 4 workers, and each covered final's scripted events
// as the column's frames show them, by final ID.
type e9Column struct {
	dl     *DigitalLibrary
	events map[int64][]synth.EventTruth
}

// e9Corpus is the E9 fixture: the site, the finals it covers in creation
// order, and one column per hardTracked difficulty. saved holds the cuts
// column's SaveIndex bytes at 1 and at 4 workers.
type e9Corpus struct {
	site   *webspace.Site
	finals []*webspace.Object
	cols   map[string]*e9Column
	saved  [2][]byte
}

var (
	e9Once sync.Once
	e9     *e9Corpus
	e9Err  error
)

// e9Fixture builds the corpus once per test process.
func e9Fixture(tb testing.TB) *e9Corpus {
	tb.Helper()
	site := e8Fixture(tb)
	e9Once.Do(func() { e9, e9Err = buildE9(site) })
	if e9Err != nil {
		tb.Fatal(e9Err)
	}
	return e9
}

// e9Finals are the finals the corpus covers: every women's final a
// left-handed woman played. They hold every final the motivating query's
// players won, and finals its filters must turn away.
func e9Finals(w *webspace.Webspace) []*webspace.Object {
	var finals []*webspace.Object
	for _, id := range w.All("Final") {
		f, _ := w.Get(id)
		if f.StringAttr("category") != "women" {
			continue
		}
		for _, role := range []string{"winner", "runnerup"} {
			if p, _ := w.Get(f.Links[role][0]); p.StringAttr("handedness") == "left" {
				finals = append(finals, f)
				break
			}
		}
	}
	return finals
}

// finalVideo is the name of a final's video.
func finalVideo(w *webspace.Webspace, final *webspace.Object) string {
	v, _ := w.Get(final.Links["video"][0])
	return v.StringAttr("name")
}

// buildE9 renders, writes and indexes the corpus. The finals render in
// parallel, each into its own files; each column is then indexed at 4
// workers, and the cuts column at 1 worker too. The SVF files are removed
// once indexed.
func buildE9(site *webspace.Site) (*e9Corpus, error) {
	dir, err := os.MkdirTemp("", "e9-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	for i := range hardTracked {
		if err := os.Mkdir(filepath.Join(dir, strconv.Itoa(i)), 0o755); err != nil {
			return nil, err
		}
	}
	c := &e9Corpus{site: site, finals: e9Finals(site.W), cols: map[string]*e9Column{}}
	events := make([][][]synth.EventTruth, len(c.finals)) // by final, then column
	errs := make([]error, len(c.finals))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for fi, f := range c.finals {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			events[fi], errs[fi] = writeE9Final(dir, site.W, f)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for i, col := range hardTracked {
		cc := &e9Column{events: map[int64][]synth.EventTruth{}}
		c.cols[col] = cc
		jobs := make([]IngestJob, len(c.finals))
		for fi, f := range c.finals {
			jobs[fi] = IngestJob{Path: e9Path(dir, i, site.W, f)}
			cc.events[f.ID] = events[fi][i]
		}
		lib, saved, err := indexE9(jobs, 4)
		if err != nil {
			return nil, err
		}
		if col == "cuts" {
			c.saved[1] = saved
			if _, c.saved[0], err = indexE9(jobs, 1); err != nil {
				return nil, err
			}
		}
		if cc.dl, err = NewDigitalLibrary(site, lib); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// indexE9 indexes jobs into a new library at workers and saves the index.
func indexE9(jobs []IngestJob, workers int) (*Library, []byte, error) {
	lib, err := NewLibrary()
	if err != nil {
		return nil, nil, err
	}
	if _, err := lib.IndexBatch(context.Background(), jobs, BatchOptions{Workers: workers}); err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	err = lib.SaveIndex(&buf)
	return lib, buf.Bytes(), err
}

// e9Path is where column i's broadcast of a final is written: under the
// final's video name, which names the indexed video.
func e9Path(dir string, i int, w *webspace.Webspace, final *webspace.Object) string {
	return filepath.Join(dir, strconv.Itoa(i), finalVideo(w, final)+".svf")
}

// writeE9Final renders a final's broadcast under every hardTracked
// difficulty and writes each to its e9Path. It returns each column's event
// truth.
func writeE9Final(dir string, w *webspace.Webspace, final *webspace.Object) ([][]synth.EventTruth, error) {
	base, err := e9Broadcast(final.ID, 160, 120)
	if err != nil {
		return nil, err
	}
	small, err := e9Broadcast(final.ID, 150, 110)
	if err != nil {
		return nil, err
	}
	events := make([][]synth.EventTruth, len(hardTracked))
	for i, col := range hardTracked {
		h := derive(col, base, small)
		if err := WriteSVF(e9Path(dir, i, w, final), h.frames, base.FPS); err != nil {
			return nil, err
		}
		events[i] = h.events
	}
	return events, nil
}

// TestE9IngestDeterministic checks that the E9 corpus's cuts column, the
// library judged128 and BenchmarkE9EndToEnd serve, saves the same index
// bytes at 1 and at 4 workers.
func TestE9IngestDeterministic(t *testing.T) {
	if s := e9Fixture(t).saved; !bytes.Equal(s[0], s[1]) {
		t.Fatalf("SaveIndex gave %d bytes at 1 worker and %d different ones at 4", len(s[0]), len(s[1]))
	}
}

// TestE9ReleasesItsNodes checks that e9Ask releases the nodes it serves
// from once it has their answers: after E9's rows the cuts library holds no
// server, since none of them serves any more.
func TestE9ReleasesItsNodes(t *testing.T) {
	dl := e9Fixture(t).cols["cuts"].dl
	e9Rows(t)
	dl.mu.Lock()
	defer dl.mu.Unlock()
	if n := len(dl.servers); n != 0 {
		t.Fatalf("after E9's rows the cuts library holds %d servers, none of them serving", n)
	}
}

// e9Rows judges the motivating query in every hardTracked column: the
// players it answers by set precision and recall against W.Run, and the
// net-play scenes it joins onto them by eval.MatchIntervals at IoU >= 0.5
// against the scripted net-play of those players' won finals. Every column
// is asked three ways, which must agree (e9Ask).
func e9Rows(tb testing.TB) []ledgerRow {
	c := e9Fixture(tb)
	w := c.site.W
	truth := runTruth(tb, w, webspace.MotivatingQuery())
	var rows []ledgerRow
	for _, col := range hardTracked {
		var found []int64
		var detected, scripted []eval.Interval
		for _, it := range e9Ask(tb, c.cols[col].dl) {
			found = append(found, it.ID)
			for _, sc := range it.Scenes {
				detected = append(detected, eval.Interval{Start: sc.Start, End: sc.End, Label: sc.Video + " " + sc.Kind})
			}
		}
		for _, f := range c.finals {
			if !truth[f.Links["winner"][0]] {
				continue
			}
			for _, e := range c.cols[col].events[f.ID] {
				if e.Kind == synth.EventNetPlay {
					scripted = append(scripted, eval.Interval{Start: e.Start, End: e.End, Label: finalVideo(w, f) + " " + string(e.Kind)})
				}
			}
		}
		players := eval.AtK(found, truth, len(found))
		rows = append(rows,
			score("E9", "players", col, "P", players.Precision()),
			score("E9", "players", col, "R", players.Recall()))
		rows = append(rows, prRows("E9", "net-play scenes iou >= 0.5", col, eval.MatchIntervals(detected, scripted, 0.5))...)
	}
	return rows
}

// An e9Item is one item of the motivating query's answer as all three
// paths state it: the object and the scenes joined onto it, in order.
type e9Item struct {
	ID     int64     `json:"objectId"`
	Scenes []e9Scene `json:"scenes"`
}

type e9Scene struct {
	Video      string  `json:"video"`
	Kind       string  `json:"kind"`
	Start      int     `json:"start"`
	End        int     `json:"end"`
	Confidence float64 `json:"confidence"`
}

// e9Ask asks dl the motivating query three ways — through the engine,
// through a node's /v2/search, and through dlrouter over two nodes — and
// fails unless all three answer the same items with the same scenes in the
// same order. It returns that answer.
func e9Ask(tb testing.TB, dl *DigitalLibrary) []e9Item {
	tb.Helper()
	rs, err := dl.Search(context.Background(), Query{Source: MotivatingQuery()})
	if err != nil {
		tb.Fatal(err)
	}
	want := make([]e9Item, len(rs.Items))
	for i, it := range rs.Items {
		want[i].ID = it.Object.ID
		for _, sc := range it.Scenes {
			want[i].Scenes = append(want[i].Scenes, e9Scene{sc.Video.Name, sc.Event.Kind, sc.Event.Start, sc.Event.End, sc.Event.Confidence})
		}
	}
	var nodes []string
	for range 2 {
		srv := NewServer(dl, ServerOptions{})
		ts := httptest.NewServer(srv)
		defer dl.Release(srv) // deferred first, so it runs after ts.Close
		defer ts.Close()
		nodes = append(nodes, ts.URL)
	}
	r, err := router.New(nodes, router.Options{}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	rt := httptest.NewServer(r)
	defer rt.Close()
	for _, base := range []string{nodes[0], rt.URL} {
		if got := e9Get(tb, base); !reflect.DeepEqual(got, want) {
			tb.Fatalf("%s answers %+v, the engine %+v", base, got, want)
		}
	}
	return want
}

// e9Get is the whole answer base's /v2/search gives the motivating query.
func e9Get(tb testing.TB, base string) []e9Item {
	tb.Helper()
	resp, err := http.Get(base + "/v2/search?q=" + url.QueryEscape(MotivatingQuery()))
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	var page struct {
		Total  int      `json:"total"`
		Cursor string   `json:"cursor"`
		Items  []e9Item `json:"items"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil || resp.StatusCode != http.StatusOK {
		tb.Fatalf("%s: status %d, %v", base, resp.StatusCode, err)
	}
	if page.Total != len(page.Items) || page.Cursor != "" {
		tb.Fatalf("%s: a page of %d items of %d (cursor %q), want the whole answer", base, len(page.Items), page.Total, page.Cursor)
	}
	return page.Items
}
