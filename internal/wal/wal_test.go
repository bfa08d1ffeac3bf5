package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fsx"
)

func openT(t *testing.T, dir string) (*Log, State) {
	t.Helper()
	l, st, err := Open(dir, fsx.OS)
	if err != nil {
		t.Fatal(err)
	}
	return l, st
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, st := openT(t, dir)
	if len(st.Pending) != 0 || st.TornTail || st.CheckpointSeq != 0 {
		t.Fatalf("fresh log state %+v", st)
	}
	s1, err := l.Append(KindCommit, "tok-1", []byte("payload one"))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := l.Append(KindCommit, "", []byte("payload two"))
	if err != nil {
		t.Fatal(err)
	}
	if s1 != 1 || s2 != 2 {
		t.Fatalf("seqs %d %d", s1, s2)
	}
	l.Close()

	l2, st2 := openT(t, dir)
	defer l2.Close()
	if len(st2.Pending) != 2 || st2.TornTail {
		t.Fatalf("replay state %+v", st2)
	}
	if st2.Pending[0].Token != "tok-1" || string(st2.Pending[0].Data) != "payload one" {
		t.Fatalf("record 0 %+v", st2.Pending[0])
	}
	if st2.Pending[1].Seq != 2 || st2.Pending[1].Token != "" {
		t.Fatalf("record 1 %+v", st2.Pending[1])
	}
	if got, err := l2.Append(KindCommit, "", []byte("payload three")); err != nil || got != 3 {
		t.Fatalf("next seq %d (%v), want 3", got, err)
	}
}

func TestCheckpointRotation(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	l.Append(KindCommit, "", []byte("a"))
	l.Append(KindCommit, "", []byte("b"))
	if err := l.Rotate(2, 7); err != nil {
		t.Fatal(err)
	}
	// The rotated log is tiny: header + one checkpoint record.
	raw, err := os.ReadFile(filepath.Join(dir, FileName))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64 {
		t.Fatalf("rotated log still %d bytes", len(raw))
	}
	// Appends continue with the post-checkpoint sequence.
	seq, err := l.Append(KindCommit, "", []byte("c"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 4 { // 1,2 commits; 3 checkpoint; 4 next
		t.Fatalf("seq after rotate %d, want 4", seq)
	}
	l.Close()

	_, st := openT(t, dir)
	if st.CheckpointSeq != 2 || st.CheckpointGen != 7 {
		t.Fatalf("checkpoint state %+v", st)
	}
	if len(st.Pending) != 1 || string(st.Pending[0].Data) != "c" {
		t.Fatalf("pending after rotate %+v", st.Pending)
	}
}

// Truncating the log at EVERY byte offset must replay a clean prefix of
// the appended records — never an error, never a partial record.
func TestTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	l.Append(KindCommit, "t1", []byte("first payload"))
	l.Append(KindCommit, "t2", []byte("second payload"))
	l.Append(KindCommit, "t3", []byte("third payload"))
	l.Close()
	path := filepath.Join(dir, FileName)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(full); cut++ {
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, FileName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, st, err := Open(sub, fsx.OS)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		for i, r := range st.Pending {
			want := []string{"first payload", "second payload", "third payload"}[i]
			if string(r.Data) != want {
				t.Fatalf("cut=%d record %d: %q", cut, i, r.Data)
			}
		}
		if cut == len(full) && len(st.Pending) != 3 {
			t.Fatalf("full file replayed %d records", len(st.Pending))
		}
		// cut==0 is an empty (fresh) file, not a torn one; any other cut
		// off a record boundary must be flagged.
		wantTorn := cut != 0 && cut != len(full) && !prefixIsRecordBoundary(full, cut)
		if st.TornTail != wantTorn {
			t.Fatalf("cut=%d: torn=%v, want %v", cut, st.TornTail, wantTorn)
		}
		// The repaired log must accept appends and replay them.
		if _, err := l2.Append(KindCommit, "", []byte("after repair")); err != nil {
			t.Fatalf("cut=%d append after repair: %v", cut, err)
		}
		l2.Close()
		_, st2, err := Open(sub, fsx.OS)
		if err != nil {
			t.Fatalf("cut=%d reopen: %v", cut, err)
		}
		last := st2.Pending[len(st2.Pending)-1]
		if string(last.Data) != "after repair" {
			t.Fatalf("cut=%d: appended record lost", cut)
		}
	}
}

// prefixIsRecordBoundary reports whether cutting at off leaves whole
// records only (so the scan sees no torn tail).
func prefixIsRecordBoundary(full []byte, off int) bool {
	boundaries := map[int]bool{len(Magic): true}
	walk := len(Magic)
	for walk < len(full) {
		n := int(uint32(full[walk]) | uint32(full[walk+1])<<8 | uint32(full[walk+2])<<16 | uint32(full[walk+3])<<24)
		walk += 8 + n
		boundaries[walk] = true
	}
	return boundaries[off]
}

// Flipping any single byte of a record must stop replay at that record —
// corrupt data can never be returned as a commit.
func TestCorruptRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	l.Append(KindCommit, "", []byte("first payload"))
	l.Append(KindCommit, "", []byte("second payload"))
	l.Close()
	path := filepath.Join(dir, FileName)
	full, _ := os.ReadFile(path)

	for flip := len(Magic); flip < len(full); flip += 3 {
		mut := append([]byte(nil), full...)
		mut[flip] ^= 0x41
		sub := t.TempDir()
		os.WriteFile(filepath.Join(sub, FileName), mut, 0o644)
		_, st, err := Open(sub, fsx.OS)
		if err != nil {
			continue // e.g. header-adjacent flips that make the file unreadable are fine to reject
		}
		for _, r := range st.Pending {
			if !bytes.Equal(r.Data, []byte("first payload")) && !bytes.Equal(r.Data, []byte("second payload")) {
				t.Fatalf("flip=%d: corrupt record replayed: %q", flip, r.Data)
			}
		}
	}
}

// An append that fails poisons the log; Rotate heals it.
func TestPoisonedAppendHealedByRotate(t *testing.T) {
	dir := t.TempDir()
	// Count ops up to open so the failpoint hits the first append's write.
	probe := &fsx.Fault{}
	lp, _, err := Open(dir, fsx.NewFaultFS(fsx.OS, probe))
	if err != nil {
		t.Fatal(err)
	}
	lp.Close()
	openOps := probe.Count()

	dir2 := t.TempDir()
	fault := &fsx.Fault{K: openOps + 1, Mode: fsx.ModeEIO}
	l, _, err := Open(dir2, fsx.NewFaultFS(fsx.OS, fault))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(KindCommit, "", []byte("x")); !errors.Is(err, fsx.ErrInjected) {
		t.Fatalf("append err %v", err)
	}
	if !fault.Fired() {
		t.Fatal("failpoint did not fire on append")
	}
	if _, err := l.Append(KindCommit, "", []byte("y")); err == nil {
		t.Fatal("poisoned log accepted an append")
	}
	if err := l.Rotate(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(KindCommit, "", []byte("z")); err != nil {
		t.Fatalf("append after healing rotate: %v", err)
	}
	l.Close()
	_, st, err := Open(dir2, fsx.OS)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Pending) != 1 || string(st.Pending[0].Data) != "z" {
		t.Fatalf("pending after heal: %+v", st.Pending)
	}
}

func TestForeignFileRefused(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, FileName), []byte("NOTAWAL!xxxxxxxx"), 0o644)
	if _, _, err := Open(dir, fsx.OS); err == nil {
		t.Fatal("opened a non-WAL file")
	}
}
