// Command dlserve is the long-lived digital library search daemon: it
// builds the engine once (synthetic Australian Open site + optional video
// meta-index from cobraindex) and serves combined, keyword, vector,
// hybrid, and scene queries on one endpoint, /v2/search, with cursor
// pagination and explain plans behind a sharded result cache that keeps
// the answers asked again, plus incremental index growth.
//
// Usage:
//
//	dlserve -addr :8372 -meta meta.db -cache-size 4096 -workers 8 \
//	        -segment-target 64 -text-segments 4
//
//	curl 'http://localhost:8372/healthz'
//	curl 'http://localhost:8372/metrics'      # Prometheus text format
//	curl 'http://localhost:8372/debug/vars'   # same metrics as JSON
//	# with -debug-addr 127.0.0.1:6060 (off by default; never the serving port):
//	curl -o heap.pprof 'http://127.0.0.1:6060/debug/pprof/heap'
//	curl 'http://localhost:8372/v2/manifest'  # segment sets (router placement)
//	curl --get 'http://localhost:8372/v2/search' \
//	     --data-urlencode 'q=find Player where sex = "female"' \
//	     --data-urlencode 'limit=10'
//	curl -X POST 'http://localhost:8372/v2/commit' \
//	     -d '{"paths":["/data/new-broadcast.svf"]}'
//	curl -X POST 'http://localhost:8372/v2/compact' -d '{"target":64}'
//	curl -X POST 'http://localhost:8372/v2/reload'
//
// Cluster serving: GET /v2/partial answers partial top-K text search and
// per-partition scene lookups over an explicit segment selection — the
// surface cmd/dlrouter scatters over. -text-segments N partitions the
// site's full-text index so keyword placement has something to spread;
// answers are byte-identical for every N.
//
// Incremental growth: POST /v2/commit ingests new SVF files into a
// brand-new index segment and installs the extended segment set atomically
// — existing segments are not re-read, queries in flight finish on their
// snapshot, and the result cache generation moves so nothing stale serves.
// With -segment-target N, a background compaction merges adjacent small
// segments (combined videos <= N) after each commit; answers are identical
// before and after, only the partitioning changes.
//
// Online reindexing: SIGHUP (or POST /v2/reload) re-reads the -meta file
// and hot-swaps the whole library atomically — the full-rebuild path, for
// when the file changed on disk.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// finish (up to a 5s drain) before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/dlse"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dlserve: ")
	var (
		addr      = flag.String("addr", ":8372", "listen address (host:port; port 0 picks a free port)")
		metaPath  = flag.String("meta", "", "segfile meta-index from cobraindex (optional; reloaded on SIGHUP)")
		cacheSize = flag.Int("cache-size", 1024, "query cache capacity in entries (negative disables)")
		workers   = flag.Int("workers", 0, "max queries executing concurrently (0 = unbounded)")
		segTarget = flag.Int("segment-target", 0,
			"background-compact adjacent segments up to this many videos after each commit (0 disables)")
		textSegs = flag.Int("text-segments", 0,
			"partition the full-text index into this many segments (router keyword placement; 0 = 1 segment)")
		textSegfile = flag.String("text-segfile", "",
			"cache the frozen full-text index in a memory-mappable segfile at this path (skips re-tokenizing the site when the cache matches)")
		vecSegfile = flag.String("vec-segfile", "",
			"cache the vector lane's page embeddings in a memory-mappable segfile at this path (skips re-embedding the site when the cache matches; read beside -text-segfile, whose page names it uses)")
		walDir = flag.String("wal", "",
			"write-ahead log directory: commits are durably logged before indexing and replayed on boot, so an acknowledged commit survives any crash (empty disables)")
		walCheckpoint = flag.Int("wal-checkpoint", 16,
			"checkpoint the WAL (snapshot + log rotation) after this many logged commits; 0 checkpoints only at shutdown and reload")
		players   = flag.Int("players", 64, "site size: number of players")
		seed      = flag.Int64("seed", 16, "site generation seed")
		years     = flag.Int("years", 10, "site size: number of tournament editions")
		debugAddr = flag.String("debug-addr", "",
			"serve net/http/pprof profiles under /debug/pprof/ on this separate address (empty disables, and then no heap profile is sampled)")
	)
	flag.Parse()
	// Without -debug-addr no heap profile can be read, so none is sampled:
	// the sampled allocation stacks would stay resident for nothing.
	if *debugAddr == "" {
		runtime.MemProfileRate = 0
	}

	site, err := repro.GenerateSite(repro.SiteConfig{
		Players: *players, YearStart: 2001 - *years + 1, YearEnd: 2001, Seed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	// loadLib (re)builds the video library from the current contents of the
	// meta file — the startup path and the hot-reload path are the same
	// code. Without -meta the library starts empty and grows via commits.
	loadLib := func() (*repro.Library, error) {
		if *metaPath == "" {
			return repro.NewLibrary()
		}
		// LoadLibraryFile memory-maps segfile libraries: startup cost is
		// O(segments) and a segment's pages fault in only when a query
		// first touches it. Superseded libraries (reload, SIGHUP) are
		// deliberately never Closed — in-flight queries on old snapshots
		// may still trigger a first-touch decode, so the mappings live for
		// the life of the process.
		return repro.LoadLibraryFile(*metaPath)
	}
	// Recovery-on-boot: with -wal, the library base is the WAL's last
	// checkpoint snapshot (falling back to -meta / empty), and every commit
	// logged after it is replayed through the same deterministic path live
	// traffic uses — the recovered index is byte-identical to the one a
	// never-crashed run would serve.
	var dwal *repro.WAL
	var lib *repro.Library
	if *walDir != "" {
		w, err := repro.OpenWAL(*walDir)
		if err != nil {
			log.Fatal(err)
		}
		dwal = w
		fromSnap := false
		if lib, fromSnap, err = w.LoadBase(loadLib); err != nil {
			log.Fatal(err)
		}
		pending := w.Pending()
		replayed, err := w.Replay(context.Background(), lib)
		if err != nil {
			log.Fatalf("wal replay: %v (replayed %d/%d)", err, replayed, pending)
		}
		if replayed > 0 || fromSnap || w.TornTail() {
			log.Printf("wal recovery: snapshot=%v replayed=%d torn_tail=%v",
				fromSnap, replayed, w.TornTail())
		}
	} else {
		if lib, err = loadLib(); err != nil {
			log.Fatal(err)
		}
	}
	dl, err := repro.NewDigitalLibraryWith(site, lib, repro.LibraryOptions{
		TextSegments: *textSegs, TextSegfile: *textSegfile, VecSegfile: *vecSegfile,
	})
	if err != nil {
		log.Fatal(err)
	}
	if dwal != nil {
		dl.AttachWAL(dwal)
	}
	srv := repro.NewServer(dl, repro.ServerOptions{CacheSize: *cacheSize, Workers: *workers})
	if dwal != nil {
		dwal.RegisterMetrics(srv.Metrics())
	}

	// checkpointWAL bounds replay work and is the deliberate drop point for
	// logged commits a full reload supersedes. Failures are logged, never
	// fatal: the log keeps every record until a checkpoint lands.
	checkpointWAL := func(why string) {
		if dwal == nil {
			return
		}
		if err := dl.CheckpointWAL(); err != nil {
			log.Printf("wal checkpoint (%s) failed: %v", why, err)
		}
	}

	// reload rebuilds the library from the meta file and installs it across
	// every registered server — /v2/reload and SIGHUP alike. A reload
	// replaces the library wholesale: checkpoint so logged commits the new
	// library supersedes are dropped deliberately instead of replaying over
	// it after a crash.
	reload := func() (*repro.Library, error) {
		lib2, err := loadLib()
		if err != nil {
			return nil, err
		}
		dl.Swap(lib2)
		checkpointWAL("reload")
		return lib2, nil
	}
	// Returning a nil engine tells the endpoint the swap already happened.
	srv.SetReloader(func(ctx context.Context) (*dlse.Engine, error) {
		_, err := reload()
		return nil, err
	})

	// compacting admits one background compaction at a time; a commit that
	// lands while one runs just skips scheduling another (the next commit
	// will pick the merge up).
	compacting := make(chan struct{}, 1)
	maybeCompact := func() {
		if *segTarget <= 0 {
			return
		}
		select {
		case compacting <- struct{}{}:
		default:
			return
		}
		go func() {
			defer func() { <-compacting }()
			changed, err := dl.Compact(*segTarget)
			switch {
			case err != nil:
				log.Printf("background compaction failed: %v", err)
			case changed:
				log.Printf("background compaction installed snapshot %d", dl.Snapshot())
			}
		}()
	}

	// /v2/commit: ingest the named SVF files into a new segment. With a WAL
	// the batch is fsynced to the log before indexing (the 200 implies
	// durability) and the client's idempotency token dedups retries.
	var commitsSinceCkpt atomic.Int64
	srv.SetCommitter(func(ctx context.Context, paths []string, token string) error {
		jobs := make([]repro.IngestJob, len(paths))
		for i, p := range paths {
			jobs[i] = repro.IngestJob{Path: p}
		}
		if _, err := dl.CommitToken(ctx, token, jobs, repro.BatchOptions{}); err != nil {
			return err
		}
		if dwal != nil && *walCheckpoint > 0 &&
			commitsSinceCkpt.Add(1)%int64(*walCheckpoint) == 0 {
			checkpointWAL("periodic")
		}
		maybeCompact()
		return nil
	})

	// /v2/compact: merge segments on demand (the foreground counterpart of
	// -segment-target's background compaction).
	srv.SetCompactor(func(ctx context.Context, target int) (bool, error) {
		return dl.Compact(target)
	})

	// -debug-addr: the runtime profiles, on a listener of their own and
	// never on the serving mux.
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatal(err)
		}
		debugSrv := &http.Server{Handler: serve.DebugHandler()}
		go debugSrv.Serve(dln) // returns ErrServerClosed once Close runs
		defer debugSrv.Close()
		log.Printf("profiles on http://%s/debug/pprof/", dln.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGHUP: reload the meta-index and hot-swap without dropping queries.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			t0 := time.Now()
			lib2, err := reload()
			if err != nil {
				log.Printf("SIGHUP reload failed (still serving snapshot %d): %v",
					dl.Snapshot(), err)
				continue
			}
			view := lib2.View()
			log.Printf("SIGHUP reload: snapshot %d live in %v (videos=%d, segments=%d)",
				dl.Snapshot(), time.Since(t0).Round(time.Millisecond),
				view.Stats().Videos, view.NumSegments())
		}
	}()

	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()
	view := lib.View()
	log.Printf("listening on http://%s (docs=%d, snapshot=%d, videos=%d, segments=%d, cache=%d entries, workers=%d)",
		ln.Addr(), srv.Engine().TextIndex().Docs(), dl.Snapshot(),
		view.Stats().Videos, view.NumSegments(), *cacheSize, *workers)

	select {
	case err := <-done:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Print("shutting down")
	signal.Stop(hup)
	close(hup)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Fatal(err)
	}
	if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	// Graceful shutdown flushes a final checkpoint: the snapshot and the
	// rotated log are both fsynced, so a clean restart replays nothing.
	checkpointWAL("shutdown")
	if dwal != nil {
		if err := dwal.Close(); err != nil {
			log.Printf("wal close: %v", err)
		}
	}
}
