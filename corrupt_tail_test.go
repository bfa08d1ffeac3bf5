package repro

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// damageFrame overwrites the payload of frame k of the SVF file at path with
// zero-run tokens, which expand to far more than one frame: the record
// still parses, and decoding it fails with vidfmt.ErrCorrupt.
func damageFrame(t *testing.T, path string, k int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := 20 // header
	for i := 0; i < k; i++ {
		off += 5 + int(binary.LittleEndian.Uint32(data[off+1:]))
	}
	plen := int(binary.LittleEndian.Uint32(data[off+1:]))
	for i := off + 5; i < off+5+plen; i++ {
		data[i] = 0xFF
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// A clip damaged only inside its last tennis shot — a P-frame there no
// longer decodes — is refused at commit with an error naming the file, and
// nothing is installed: the index bytes and the snapshot stay those of the
// commit before. The detectors read the frames as they scan them; the
// segment detector's forward scan reaches the damaged frame first (the
// tennis detector's own read of a shot failing is fde's
// TestTennisPassSourceError). The WAL logged the refused commit before
// indexing it, so a reboot replays both records, and the damaged one lands
// the same no-op again.
func TestCorruptTailCommitRefused(t *testing.T) {
	site, clips := crashInputs(t)
	dir := t.TempDir()
	good := filepath.Join(dir, "good.svf")
	if err := WriteSVF(good, clips[0].Frames, clips[0].FPS); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultBroadcastConfig(905)
	cfg.Shots = 3 // tennis, a reaction shot, tennis
	cfg.MinShotLen, cfg.MaxShotLen = 20, 24
	b, err := GenerateBroadcast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := b.Truth.Shots[len(b.Truth.Shots)-1]
	if last.Class.String() != "tennis" {
		t.Fatalf("last shot is %s, want tennis", last.Class)
	}
	bad := filepath.Join(dir, "bad.svf")
	if err := WriteSVF(bad, b.Frames, b.FPS); err != nil {
		t.Fatal(err)
	}
	k := (last.Start + last.End) / 2
	if k%12 == 0 {
		k++ // a P-frame
	}
	damageFrame(t, bad, k)

	ctx := context.Background()
	walDir := filepath.Join(dir, "wal")
	boot := func() (*WAL, *Library, int) {
		w, err := OpenWAL(walDir)
		if err != nil {
			t.Fatal(err)
		}
		lib, _, err := w.LoadBase(NewLibrary)
		if err != nil {
			t.Fatal(err)
		}
		n, err := w.Replay(ctx, lib)
		if err != nil {
			t.Fatal(err)
		}
		return w, lib, n
	}
	saved := func(lib *Library) []byte {
		var buf bytes.Buffer
		if err := lib.SaveIndex(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	w, lib, _ := boot()
	dl, err := NewDigitalLibrary(site, lib)
	if err != nil {
		t.Fatal(err)
	}
	dl.AttachWAL(w)
	if _, err := dl.CommitToken(ctx, "good", []IngestJob{{Path: good}}, BatchOptions{}); err != nil {
		t.Fatal(err)
	}
	before, snap := saved(lib), dl.Snapshot()
	results, err := dl.CommitToken(ctx, "bad", []IngestJob{{Path: bad}}, BatchOptions{})
	if err == nil || !strings.Contains(err.Error(), bad) || len(results) != 1 || results[0].Err == nil {
		t.Fatalf("damaged commit: results %+v, err %v; want a refusal naming %s", results, err, bad)
	}
	if !bytes.Equal(saved(lib), before) || dl.Snapshot() != snap {
		t.Fatal("the refused commit changed the installed index")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w, recovered, n := boot()
	defer w.Close()
	if n != 2 || !bytes.Equal(saved(recovered), before) {
		t.Fatalf("replayed %d records (want 2); recovered index equal to the live one: %t", n, bytes.Equal(saved(recovered), before))
	}
}
