package repro

// Crash-matrix tests of the durable-commit protocol: every mutating
// filesystem operation of a WAL-backed commit+checkpoint cycle is failed in
// turn — transient EIO, torn sector, full power cut — and after each
// injected crash the WAL directory is reopened with a clean filesystem,
// exactly like a reboot. The invariants:
//
//   - zero acknowledged-commit loss: every batch CommitToken acknowledged
//     is present after recovery;
//   - crash consistency: the recovered index is byte-identical to one a
//     never-crashed run would build from some superset of the acked
//     batches (a logged-but-unacked batch may legally survive);
//   - identical answers: scene queries against the recovered library equal
//     the reference's.
//
// Alongside the matrix: recovery concurrent with live /v2/search traffic
// (no partial answers, monotonic generation) and the idempotency-token
// dedup window.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/fsx"
	"repro/internal/serve"
)

// crashFixture caches the expensive immutable inputs: a small site and two
// synthetic broadcasts (one per commit batch).
var crashFixture struct {
	once   sync.Once
	site   *Site
	clips  []*Broadcast
	fixErr error
}

func crashInputs(t *testing.T) (*Site, []*Broadcast) {
	t.Helper()
	f := &crashFixture
	f.once.Do(func() {
		f.site, f.fixErr = GenerateSite(SiteConfig{
			Players: 8, YearStart: 2000, YearEnd: 2001, Seed: 11,
		})
		if f.fixErr != nil {
			return
		}
		for i := 0; i < 2; i++ {
			// Small but not degenerate: at this scale the detector still
			// finds events (clip a: a rally; clip b: a net-play), so the
			// answer comparisons below compare something non-empty.
			cfg := DefaultBroadcastConfig(int64(900 + i))
			cfg.Shots = 2
			cfg.MinShotLen, cfg.MaxShotLen = 12, 20
			var b *Broadcast
			if b, f.fixErr = GenerateBroadcast(cfg); f.fixErr != nil {
				return
			}
			f.clips = append(f.clips, b)
		}
	})
	if f.fixErr != nil {
		t.Fatalf("crash fixture: %v", f.fixErr)
	}
	return f.site, f.clips
}

// crashBatches writes the cached clips as SVF files under dir and returns
// one single-video commit batch per clip, keyed 'a', 'b', ...
func crashBatches(t *testing.T, dir string) [][]IngestJob {
	t.Helper()
	_, clips := crashInputs(t)
	batches := make([][]IngestJob, len(clips))
	for i, b := range clips {
		path := filepath.Join(dir, fmt.Sprintf("clip-%c.svf", 'a'+i))
		if err := WriteSVF(path, b.Frames, b.FPS); err != nil {
			t.Fatal(err)
		}
		batches[i] = []IngestJob{{Name: fmt.Sprintf("crash-%c", 'a'+i), Path: path}}
	}
	return batches
}

// crashKinds are the scene queries the answer comparisons run.
var crashKinds = []string{"net-play", "rally"}

// refState is one crash-consistent reference outcome: the index bytes and
// scene answers a never-crashed run produces from a given batch subset.
type refState struct {
	saved  []byte
	scenes map[string][]Scene
}

func libScenes(t *testing.T, lib *Library) map[string][]Scene {
	t.Helper()
	out := make(map[string][]Scene, len(crashKinds))
	for _, kind := range crashKinds {
		scenes, err := lib.Scenes(kind)
		if err != nil {
			t.Fatal(err)
		}
		out[kind] = scenes
	}
	return out
}

// buildRefs materializes every subset of batches that a crash can leave
// behind (batches apply atomically and in order, so subsets, not
// arbitrary interleavings), keyed by the batch letters it contains.
func buildRefs(t *testing.T, batches [][]IngestJob) map[string]refState {
	t.Helper()
	ctx := context.Background()
	subsets := []string{""}
	for i := range batches {
		for _, s := range subsets[:len(subsets):len(subsets)] {
			subsets = append(subsets, s+string(rune('a'+i)))
		}
	}
	refs := make(map[string]refState, len(subsets))
	for _, sub := range subsets {
		lib, err := NewLibrary()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range sub {
			// Mirror the forced batch profile of the WAL commit path.
			if _, err := lib.Commit(ctx, batches[c-'a'], BatchOptions{ContinueOnError: true}); err != nil {
				t.Fatalf("reference commit %q: %v", c, err)
			}
		}
		var buf bytes.Buffer
		if err := lib.SaveIndex(&buf); err != nil {
			t.Fatal(err)
		}
		refs[sub] = refState{saved: buf.Bytes(), scenes: libScenes(t, lib)}
	}
	if full := refs[subsets[len(subsets)-1]]; len(full.scenes[crashKinds[0]])+len(full.scenes[crashKinds[1]]) == 0 {
		t.Fatal("full corpus produced no scenes — answer comparisons would be vacuous")
	}
	// The matcher below identifies the recovered state by byte equality;
	// that only works if the references are pairwise distinct.
	for a, ra := range refs {
		for b, rb := range refs {
			if a != b && bytes.Equal(ra.saved, rb.saved) {
				t.Fatalf("reference states %q and %q are byte-identical; matrix cannot discriminate", a, b)
			}
		}
	}
	return refs
}

// runCrashProtocol executes the protocol under test against fs: open the
// WAL in dir, recover, attach, commit every batch with a token (a
// checkpoint is taken after the first), and report which batches were
// acknowledged. Filesystem failures are the point — they never fail the
// test here, they just shape what got acked.
func runCrashProtocol(t *testing.T, fs fsx.FS, dir string, batches [][]IngestJob) (acked string) {
	t.Helper()
	ctx := context.Background()
	w, err := OpenWALFS(dir, fs)
	if err != nil {
		return "" // crashed at boot: nothing acked
	}
	defer w.Close()
	lib, _, err := w.LoadBase(NewLibrary)
	if err != nil {
		return ""
	}
	if _, err := w.Replay(ctx, lib); err != nil {
		return ""
	}
	dl, err := NewDigitalLibrary(crashFixture.site, lib)
	if err != nil {
		t.Fatalf("engine build (not under fault): %v", err)
	}
	dl.AttachWAL(w)
	for i, batch := range batches {
		if _, err := dl.CommitToken(ctx, fmt.Sprintf("tok-%c", 'a'+i), batch, BatchOptions{}); err == nil {
			acked += string(rune('a' + i))
		}
		if i == 0 {
			// Mid-protocol checkpoint: snapshot + log rotation are on the
			// fault path too. A failed checkpoint must never lose commits.
			_ = dl.CheckpointWAL()
		}
	}
	return acked
}

// recoverAndMatch reboots from dir with a clean filesystem, replays, and
// returns the key of the reference state the recovered index matches
// byte-for-byte (failing the test if it matches none, or if its scene
// answers diverge from that reference).
func recoverAndMatch(t *testing.T, dir string, refs map[string]refState) string {
	t.Helper()
	w, err := OpenWALFS(dir, fsx.OS)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer w.Close()
	lib, _, err := w.LoadBase(NewLibrary)
	if err != nil {
		t.Fatalf("recovery base: %v", err)
	}
	if _, err := w.Replay(context.Background(), lib); err != nil {
		t.Fatalf("replay: %v", err)
	}
	var got bytes.Buffer
	if err := lib.SaveIndex(&got); err != nil {
		t.Fatal(err)
	}
	for key, ref := range refs {
		if !bytes.Equal(got.Bytes(), ref.saved) {
			continue
		}
		if !reflect.DeepEqual(libScenes(t, lib), ref.scenes) {
			t.Fatalf("recovered index matches state %q but scene answers diverge", key)
		}
		return key
	}
	t.Fatal("recovered index is byte-identical to NO crash-consistent reference state")
	return ""
}

// TestWALCrashMatrix fails every mutating filesystem operation of a full
// commit+checkpoint cycle, in every failure mode, and proves that a
// reboot never loses an acknowledged commit and always recovers a state
// byte-identical to a never-crashed run.
func TestWALCrashMatrix(t *testing.T) {
	crashInputs(t)
	corpusDir := t.TempDir()
	batches := crashBatches(t, corpusDir)
	refs := buildRefs(t, batches)

	// Probe run: count the protocol's mutating operations fault-free, and
	// sanity-check the protocol itself while at it.
	probe := &fsx.Fault{}
	probeDir := t.TempDir()
	if acked := runCrashProtocol(t, fsx.NewFaultFS(fsx.OS, probe), probeDir, batches); acked != "ab" {
		t.Fatalf("fault-free run acked %q, want \"ab\"", acked)
	}
	if got := recoverAndMatch(t, probeDir, refs); got != "ab" {
		t.Fatalf("fault-free recovery matched %q, want \"ab\"", got)
	}
	total := probe.Count()
	if total < 12 {
		t.Fatalf("probe counted only %d mutating ops — the fault seam is not wired through the protocol", total)
	}
	t.Logf("crash matrix: %d failpoints x 3 modes", total)

	for _, mode := range []fsx.Mode{fsx.ModeEIO, fsx.ModeShortWrite, fsx.ModePowerCut} {
		for k := 1; k <= total; k++ {
			t.Run(fmt.Sprintf("%s/k=%02d", mode, k), func(t *testing.T) {
				t.Parallel() // cells are independent: own dir, own fault
				fault := &fsx.Fault{K: k, Mode: mode}
				dir := t.TempDir()
				acked := runCrashProtocol(t, fsx.NewFaultFS(fsx.OS, fault), dir, batches)
				if !fault.Fired() {
					t.Fatalf("failpoint %d never fired (protocol took a different path)", k)
				}
				match := recoverAndMatch(t, dir, refs)
				for _, c := range acked {
					if !strings.ContainsRune(match, c) {
						t.Fatalf("ACKED COMMIT LOST: batch %q acknowledged before the crash, recovered state is %q", c, match)
					}
				}
			})
		}
	}
}

// TestRecoverDuringSearch boots a server whose WAL has a non-empty tail
// while /v2/search traffic is in flight: the node serves its checkpoint
// snapshot immediately, replays the tail concurrently, and installs the
// recovered library with one swap. Queries never see a partial state —
// every answer is exactly the snapshot's or exactly the fully recovered
// one — /healthz generation is monotonic, and once recovery installs,
// answers equal the pre-crash reference.
func TestRecoverDuringSearch(t *testing.T) {
	site, _ := crashInputs(t)
	batches := crashBatches(t, t.TempDir())
	ctx := context.Background()
	dir := t.TempDir()

	// A past process: commit batch a, checkpoint, commit batch b, crash —
	// the reboot below finds a snapshot holding a and a tail holding b.
	var baseTotal, fullTotal int
	var refScenes map[string][]Scene
	{
		w, err := OpenWAL(dir)
		if err != nil {
			t.Fatal(err)
		}
		lib, err := NewLibrary()
		if err != nil {
			t.Fatal(err)
		}
		dl, err := NewDigitalLibrary(site, lib)
		if err != nil {
			t.Fatal(err)
		}
		dl.AttachWAL(w)
		if _, err := dl.CommitToken(ctx, "boot-0", batches[0], BatchOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := dl.CheckpointWAL(); err != nil {
			t.Fatal(err)
		}
		baseTotal = len(libScenes(t, lib)["net-play"])
		if _, err := dl.CommitToken(ctx, "boot-1", batches[1], BatchOptions{}); err != nil {
			t.Fatal(err)
		}
		refScenes = libScenes(t, lib)
		fullTotal = len(refScenes["net-play"])
		w.Close() // crash: batch b lives only in the log tail
	}
	if baseTotal == fullTotal {
		t.Fatalf("base and recovered answers are identical (%d scenes) — staleness would be invisible", baseTotal)
	}

	// Reboot: serve the snapshot base immediately, replay the tail under
	// live traffic, and install the recovered library with one swap.
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", w.Pending())
	}
	lib, fromSnap, err := w.LoadBase(NewLibrary)
	if err != nil {
		t.Fatal(err)
	}
	if !fromSnap {
		t.Fatal("reboot did not load the checkpoint snapshot")
	}
	dl, err := NewDigitalLibrary(site, lib)
	if err != nil {
		t.Fatal(err)
	}
	dl.AttachWAL(w)
	srv := NewServer(dl, ServerOptions{})
	w.RegisterMetrics(srv.Metrics())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	stop := make(chan struct{})
	errs := make(chan error, 64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastGen := int64(-1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Generation must never move backwards.
				var h struct {
					Generation int64 `json:"generation"`
				}
				if err := getJSON(ts.URL+"/healthz", &h); err != nil {
					errs <- err
					return
				}
				if h.Generation < lastGen {
					errs <- fmt.Errorf("generation moved backwards: %d -> %d", lastGen, h.Generation)
					return
				}
				lastGen = h.Generation
				// Every answer is a complete state: the snapshot's before
				// the swap, the recovered library's after — never a mix.
				var s struct {
					Total int `json:"total"`
				}
				if err := getJSON(ts.URL+"/v2/search?kind=net-play", &s); err != nil {
					errs <- err
					return
				}
				if s.Total != baseTotal && s.Total != fullTotal {
					errs <- fmt.Errorf("partial answer: total = %d, want %d or %d", s.Total, baseTotal, fullTotal)
					return
				}
			}
		}()
	}

	replayed, err := w.Replay(ctx, lib)
	if err != nil {
		t.Fatalf("replay under traffic: %v", err)
	}
	if replayed != 1 {
		t.Fatalf("replayed %d, want 1", replayed)
	}
	dl.Swap(lib)
	// Post-install: answers equal the pre-crash reference.
	var s struct {
		Total int `json:"total"`
	}
	if err := getJSON(ts.URL+"/v2/search?kind=net-play", &s); err != nil {
		t.Fatal(err)
	}
	if s.Total != fullTotal {
		t.Fatalf("recovered answers: total = %d, want %d", s.Total, fullTotal)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// A checkpoint makes the next restart replay-free.
	if err := dl.CheckpointWAL(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.Pending() != 0 {
		t.Fatalf("after checkpoint, pending = %d, want 0", w2.Pending())
	}
	lib2, fromSnap, err := w2.LoadBase(NewLibrary)
	if err != nil {
		t.Fatal(err)
	}
	if !fromSnap {
		t.Fatal("post-checkpoint recovery did not use the snapshot")
	}
	if !reflect.DeepEqual(libScenes(t, lib2), refScenes) {
		t.Fatal("snapshot-recovered answers diverge from the pre-crash reference")
	}
}

// TestWALTokenDedup locks the idempotency window: a token applies once per
// log lifetime — including across a crash-restart — and the window resets
// at a checkpoint.
func TestWALTokenDedup(t *testing.T) {
	site, _ := crashInputs(t)
	batches := crashBatches(t, t.TempDir())
	ctx := context.Background()
	dir := t.TempDir()

	boot := func(w *WAL) (*DigitalLibrary, *Library) {
		t.Helper()
		lib, _, err := w.LoadBase(NewLibrary)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Replay(ctx, lib); err != nil {
			t.Fatal(err)
		}
		dl, err := NewDigitalLibrary(site, lib)
		if err != nil {
			t.Fatal(err)
		}
		dl.AttachWAL(w)
		return dl, lib
	}
	videos := func(lib *Library) int { return lib.View().Stats().Videos }

	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	dl, lib := boot(w)
	if _, err := dl.CommitToken(ctx, "tok-dup", batches[0], BatchOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := videos(lib); got != 1 {
		t.Fatalf("videos = %d, want 1", got)
	}
	// Same-process retry: acknowledged, not re-applied.
	res, err := dl.CommitToken(ctx, "tok-dup", batches[0], BatchOptions{})
	if err != nil || res != nil {
		t.Fatalf("duplicate commit: results=%v err=%v, want nil/nil", res, err)
	}
	if got := videos(lib); got != 1 {
		t.Fatalf("duplicate applied: videos = %d, want 1", got)
	}
	reg := serve.NewRegistry()
	w.RegisterMetrics(reg)
	var vars bytes.Buffer
	reg.WriteJSON(&vars)
	var got map[string]float64
	if err := json.Unmarshal(vars.Bytes(), &got); err != nil || got["wal_duplicate_commits"] != 1 {
		t.Fatalf("wal_duplicate_commits = %v (%v), want 1", got["wal_duplicate_commits"], err)
	}
	w.Close()

	// Crash-restart retry: the token is still in the log, so the retry of
	// an ambiguous failure still dedups.
	w2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	dl2, lib2 := boot(w2)
	if got := videos(lib2); got != 1 {
		t.Fatalf("recovered videos = %d, want 1", got)
	}
	if res, err := dl2.CommitToken(ctx, "tok-dup", batches[0], BatchOptions{}); err != nil || res != nil {
		t.Fatalf("post-restart duplicate: results=%v err=%v", res, err)
	}
	if got := videos(lib2); got != 1 {
		t.Fatalf("post-restart duplicate applied: videos = %d", got)
	}

	// A checkpoint prunes the log — and with it the dedup window: the same
	// token now names a fresh commit.
	if err := dl2.CheckpointWAL(); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	w3, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	dl3, lib3 := boot(w3)
	if _, err := dl3.CommitToken(ctx, "tok-dup", batches[0], BatchOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := videos(lib3); got != 2 {
		t.Fatalf("post-checkpoint reuse: videos = %d, want 2 (window reset)", got)
	}
}

// getJSON fetches url and decodes its JSON body into out.
func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
