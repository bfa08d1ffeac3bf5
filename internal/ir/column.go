package ir

// Integer columns at their narrowest exact width. Every integer array the
// text lane stores — posting and book offsets, doc IDs, book codes, term
// frequencies, document lengths — is one column of unsigned values held at
// the narrowest of 1, 2, 4 and 8 bytes that holds the column's largest
// value. The rule depends on the values alone, so a heap build and the file
// it writes hold the same columns, and an opened file's columns alias its
// blocks.

import (
	"fmt"
	"math"

	"repro/internal/segfile"
)

// column is an unsigned integer column: vals is a []uint8, []uint16,
// []uint32 or []uint64. The zero column holds no slice and must not be read.
type column struct{ vals any }

// widthFor returns the narrowest width in bytes, of 1, 2, 4 and 8, that
// holds v.
func widthFor(v uint64) uint8 {
	switch {
	case v <= math.MaxUint8:
		return 1
	case v <= math.MaxUint16:
		return 2
	case v <= math.MaxUint32:
		return 4
	}
	return 8
}

// newColumn returns n zero values at the narrowest width that holds max.
func newColumn(n int, max uint64) column {
	switch widthFor(max) {
	case 1:
		return column{make([]uint8, n)}
	case 2:
		return column{make([]uint16, n)}
	case 4:
		return column{make([]uint32, n)}
	}
	return column{make([]uint64, n)}
}

// columnOf returns vals at the narrowest width that holds their largest
// value.
func columnOf[T uint32 | uint64](vals []T) column {
	var top T
	for _, v := range vals {
		top = max(top, v)
	}
	c := newColumn(len(vals), uint64(top))
	for i, v := range vals {
		c.set(i, uint64(v))
	}
	return c
}

// at returns value i.
func (c column) at(i int) uint64 {
	switch v := c.vals.(type) {
	case []uint8:
		return uint64(v[i])
	case []uint16:
		return uint64(v[i])
	case []uint32:
		return uint64(v[i])
	}
	return c.vals.([]uint64)[i]
}

// set stores x, which the column's width holds, as value i.
func (c column) set(i int, x uint64) {
	switch v := c.vals.(type) {
	case []uint8:
		v[i] = uint8(x)
	case []uint16:
		v[i] = uint16(x)
	case []uint32:
		v[i] = uint32(x)
	default:
		c.vals.([]uint64)[i] = x
	}
}

// len returns the number of values.
func (c column) len() int {
	switch v := c.vals.(type) {
	case []uint8:
		return len(v)
	case []uint16:
		return len(v)
	case []uint32:
		return len(v)
	}
	return len(c.vals.([]uint64))
}

// width returns the column's width in bytes.
func (c column) width() uint8 {
	switch c.vals.(type) {
	case []uint8:
		return 1
	case []uint16:
		return 2
	case []uint32:
		return 4
	}
	return 8
}

// bytes returns the column's memory image, aliasing it.
func (c column) bytes() []byte {
	switch v := c.vals.(type) {
	case []uint8:
		return v
	case []uint16:
		return segfile.Bytes(v)
	case []uint32:
		return segfile.Bytes(v)
	}
	return segfile.Bytes(c.vals.([]uint64))
}

// readColumn views block name as n values of the given width, which may be
// at most maxWidth bytes: checksummed first when structural, aliasing the
// reader's bytes.
func readColumn(r *segfile.Reader, name string, n int, width, maxWidth uint8, structural bool) (column, error) {
	if width > maxWidth {
		return column{}, fmt.Errorf("ir: block %q has width %d, at most %d allowed", name, width, maxWidth)
	}
	switch width {
	case 1:
		return fetchColumn[uint8](r, name, n, structural)
	case 2:
		return fetchColumn[uint16](r, name, n, structural)
	case 4:
		return fetchColumn[uint32](r, name, n, structural)
	case 8:
		return fetchColumn[uint64](r, name, n, structural)
	}
	return column{}, fmt.Errorf("ir: block %q has width %d, not 1, 2, 4 or 8", name, width)
}

func fetchColumn[T uint8 | uint16 | uint32 | uint64](r *segfile.Reader, name string, n int, structural bool) (column, error) {
	get := segfile.Bulk[T]
	if structural {
		get = segfile.Structural[T]
	}
	vs, err := get(r, name, n)
	if err != nil {
		return column{}, err
	}
	return column{vs}, nil
}
