package segfile

// The typed codec: zero-copy views of block bytes as arrays of a fixed-size
// element type, and the byte image of such an array for the writer. A
// block's bytes are its array's little-endian memory image, which is also the
// host's: NewWriter and NewReader refuse big-endian hosts. On the aligned path
// View is an unsafe.Slice aliasing the bytes — no decode, no copy; a
// misaligned base (a sub-slice, an odd caller) gets a copy instead, so callers
// never observe torn values. Blocks start on 64-byte file offsets (Align), so
// views over whole blocks of mapped files always alias.
//
// An element type must be a fixed-size value whose memory image has no
// padding and no pointers: a fixed-size number, or a struct or array of them
// laid out without gaps. View and Bytes check this at run time:
// encoding/binary's packed size of the type must equal its in-memory size.

import (
	"encoding/binary"
	"fmt"
	"unsafe"
)

// elemSize returns the size of one T, or an error when T is not a packed
// fixed-size type.
func elemSize[T any]() (int, error) {
	var zero T
	if n := binary.Size(zero); n <= 0 || n != int(unsafe.Sizeof(zero)) {
		return 0, fmt.Errorf("segfile: %T is not a packed fixed-size element type", zero)
	}
	return int(unsafe.Sizeof(zero)), nil
}

// View views b as a []T without decoding it. The view aliases b when b's base
// is aligned for T and is a copy otherwise.
func View[T any](b []byte) ([]T, error) {
	size, err := elemSize[T]()
	if err != nil {
		return nil, err
	}
	if len(b)%size != 0 {
		var zero T
		return nil, fmt.Errorf("segfile: %T view over %d bytes (not a multiple of %d)", zero, len(b), size)
	}
	n := len(b) / size
	if n == 0 {
		return nil, nil
	}
	var zero T
	if uintptr(unsafe.Pointer(&b[0]))%unsafe.Alignof(zero) == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]T, n)
	copy(Bytes(out), b)
	return out, nil
}

// Bytes returns the memory image of vs — what View reads back — aliasing vs,
// so a writer can pass an array as a Block part without copying it.
func Bytes[T any](vs []T) []byte {
	size, err := elemSize[T]()
	if err != nil {
		panic(err) // a programming error: the element type is fixed at compile time
	}
	if len(vs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), len(vs)*size)
}
