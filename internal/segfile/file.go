package segfile

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// mapped counts the bytes of every File open in this process: Open adds a
// file's size, and its Close takes it away again.
var mapped atomic.Int64

// MappedBytes returns the bytes of the segfiles this process holds open —
// mapped, or read into the heap where the platform cannot map.
func MappedBytes() int64 { return mapped.Load() }

// File is a Reader over a memory-mapped segfile. Opening costs one mmap
// plus the O(blocks) TOC parse — block payloads page in from disk on first
// touch, which is what makes cold start O(segments) and lets corpora larger
// than RAM serve queries (the kernel evicts and re-pages cold blocks), with
// co-located processes sharing the page cache for the same file.
//
// Every slice handed out by the embedded Reader aliases the mapping: it is
// valid only until Close. Close is idempotent and safe for concurrent use,
// but the caller must guarantee no reader still holds a slice.
type File struct {
	*Reader
	size      int64
	closeOnce sync.Once
	release   func() error
	closeErr  error
}

// Open maps the file at path and parses its container structure. It is the
// one place that decides a path holds no segfile at all: a directory, or a
// file NewReader refuses with ErrNotSegfile, fails wrapping ErrNotSegfile.
func Open(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("segfile: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("segfile: %w", err)
	}
	if st.IsDir() {
		return nil, fmt.Errorf("segfile: %s is a directory: %w", path, ErrNotSegfile)
	}
	data, release, err := mapFile(f, st.Size())
	if err != nil {
		return nil, err
	}
	r, err := NewReader(data)
	if err != nil {
		release()
		return nil, fmt.Errorf("segfile: %s: %w", path, err)
	}
	mapped.Add(st.Size())
	return &File{Reader: r, size: st.Size(), release: release}, nil
}

// Close releases the mapping. Idempotent.
func (f *File) Close() error {
	f.closeOnce.Do(func() {
		f.closeErr = f.release()
		mapped.Add(-f.size)
	})
	return f.closeErr
}

// OpenAs maps the file at path and hands the parsed container to open, the
// block owner's decoder. What open returns aliases the mapping, which the
// returned closer releases; when open fails the mapping is released here.
func OpenAs[T any](path string, open func(*Reader) (T, error)) (T, io.Closer, error) {
	f, err := Open(path)
	if err == nil {
		var v T
		if v, err = open(f.Reader); err == nil {
			return v, f, nil
		}
		f.Close()
	}
	var zero T
	return zero, nil, err
}
