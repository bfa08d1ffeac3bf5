package segfile

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fsx"
)

// writeAtomic durably replaces path with a segfile produced by write, the
// way every segfile owner does: a Writer streaming into fsx.WriteAtomic's
// temp file, which is fsynced, renamed over path, and its directory fsynced.
func writeAtomic(fs fsx.FS, path string, write func(*Writer)) error {
	return fsx.WriteAtomic(fs, path, func(w io.Writer) error {
		sw, err := NewWriter(w)
		if err != nil {
			return err
		}
		write(sw)
		return sw.Close()
	})
}

func writeSampleAtomic(t *testing.T, fs fsx.FS, path string) error {
	t.Helper()
	return writeAtomic(fs, path, func(w *Writer) {
		w.Block("alpha", []byte("hello"), []byte(" world"))
		w.Block("beta", Bytes([]float32{1.5, -2.25, 3}))
	})
}

func TestWriteFileAtomicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sample.segfile")
	if err := writeSampleAtomic(t, fsx.OS, path); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := verifyBlocks(f.Reader); err != nil {
		t.Fatal(err)
	}
	b, ok := f.Block("alpha")
	if !ok || string(b) != "hello world" {
		t.Fatalf("alpha = %q, %v", b, ok)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("temp debris: %d entries", len(ents))
	}
}

// A fault at any step of an atomic rewrite leaves either the old complete
// segfile or the new complete one — Open never sees a torn container.
func TestWriteFileAtomicFaultMatrix(t *testing.T) {
	probe := &fsx.Fault{}
	dir := t.TempDir()
	path := filepath.Join(dir, "m.segfile")
	if err := writeSampleAtomic(t, fsx.NewFaultFS(fsx.OS, probe), path); err != nil {
		t.Fatal(err)
	}
	total := probe.Count()

	for _, mode := range []fsx.Mode{fsx.ModeEIO, fsx.ModeShortWrite, fsx.ModePowerCut} {
		for k := 1; k <= total; k++ {
			dir := t.TempDir()
			path := filepath.Join(dir, "m.segfile")
			// Seed an old generation, then rewrite under fault.
			if err := writeAtomic(fsx.OS, path, func(w *Writer) {
				w.Block("old", []byte("previous generation"))
			}); err != nil {
				t.Fatal(err)
			}
			fault := &fsx.Fault{K: k, Mode: mode}
			werr := writeSampleAtomic(t, fsx.NewFaultFS(fsx.OS, fault), path)
			f, err := Open(path)
			if err != nil {
				t.Fatalf("%v k=%d: torn container: %v", mode, k, err)
			}
			if err := verifyBlocks(f.Reader); err != nil {
				f.Close()
				t.Fatalf("%v k=%d: corrupt blocks: %v", mode, k, err)
			}
			oldGen := f.Has("old")
			newGen := f.Has("alpha") && f.Has("beta")
			f.Close()
			if !oldGen && !newGen {
				t.Fatalf("%v k=%d: neither generation present (write err %v)", mode, k, werr)
			}
			if werr == nil && fault.Fired() && !newGen && mode != fsx.ModePowerCut {
				// Only the final dir-sync step may fail after the rename
				// landed; any other successful return must expose new bytes.
				t.Logf("%v k=%d: fault fired late, old generation kept", mode, k)
			}
		}
	}
}

// Truncating a valid segfile at any offset must make Open fail cleanly —
// the checksummed header/footer/TOC reject every prefix.
func TestOpenTruncatedFileRefused(t *testing.T) {
	var full []byte
	{
		dir := t.TempDir()
		path := filepath.Join(dir, "full.segfile")
		if err := writeSampleAtomic(t, fsx.OS, path); err != nil {
			t.Fatal(err)
		}
		var err error
		full, err = os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	for cut := 0; cut < len(full); cut++ {
		path := filepath.Join(dir, "trunc.segfile")
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := Open(path)
		if err == nil {
			f.Close()
			t.Fatalf("cut=%d: truncated segfile opened", cut)
		}
	}
}
