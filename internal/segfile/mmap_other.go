//go:build !unix

package segfile

import (
	"fmt"
	"io"
	"os"
)

// mapFile on platforms without syscall.Mmap reads the whole file into the
// heap. Opens still work everywhere; only the zero-page-in property is
// unix-specific.
func mapFile(f *os.File, size int64) ([]byte, func() error, error) {
	if size < 0 || size != int64(int(size)) {
		return nil, nil, fmt.Errorf("segfile: file size %d not loadable on this platform", size)
	}
	data := make([]byte, int(size))
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, nil, fmt.Errorf("segfile: read: %w", err)
	}
	return data, func() error { return nil }, nil
}
