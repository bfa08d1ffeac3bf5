//go:build unix

package segfile

import (
	"fmt"
	"os"
	"syscall"
)

// mapFile maps size bytes of f read-only. The returned release function
// unmaps; after it runs, every slice handed out by the Reader over the
// mapping is invalid.
func mapFile(f *os.File, size int64) ([]byte, func() error, error) {
	if size == 0 {
		return nil, func() error { return nil }, nil
	}
	if size < 0 || size != int64(int(size)) {
		return nil, nil, fmt.Errorf("segfile: file size %d not mappable on this platform", size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, fmt.Errorf("segfile: mmap: %w", err)
	}
	return data, func() error { return syscall.Munmap(data) }, nil
}
