package segfile_test

import (
	"math"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/ir"
	"repro/internal/segfile"
)

// viewCase round-trips one element type through Bytes and View.
type viewCase struct {
	name string
	run  func(t *testing.T)
}

func roundTrip[T any](name string, vs []T) viewCase {
	return viewCase{name, func(t *testing.T) {
		size := int(unsafe.Sizeof(vs[0]))
		b := segfile.Bytes(vs)
		if len(b) != len(vs)*size {
			t.Fatalf("Bytes: %d bytes for %d values of %d", len(b), len(vs), size)
		}

		// Aligned: the view aliases the bytes.
		got, err := segfile.View[T](b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, vs) {
			t.Fatalf("aligned view = %v, want %v", got, vs)
		}
		if unsafe.Pointer(&got[0]) != unsafe.Pointer(&b[0]) {
			t.Fatal("aligned view copied the bytes")
		}

		// Misaligned: the view is a decoded copy.
		buf := make([]byte, len(b)+16)
		o := 0
		for uintptr(unsafe.Pointer(&buf[o]))%unsafe.Alignof(vs[0]) == 0 {
			o++
		}
		odd := buf[o : o+len(b)]
		copy(odd, b)
		got, err = segfile.View[T](odd)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, vs) {
			t.Fatalf("misaligned view = %v, want %v", got, vs)
		}
		if unsafe.Pointer(&got[0]) == unsafe.Pointer(&odd[0]) {
			t.Fatal("misaligned view aliases its bytes")
		}

		// A length that is not a whole number of elements.
		if _, err := segfile.View[T](b[:len(b)-1]); err == nil {
			t.Fatalf("view over %d bytes of %d-byte elements accepted", len(b)-1, size)
		}
		if got, err := segfile.View[T](nil); err != nil || len(got) != 0 {
			t.Fatalf("empty view = %v, %v", got, err)
		}
	}}
}

// TestViewsMisalignedFallback views float32s through a base pointer that is
// off by one byte, and refuses lengths that are not whole elements.
func TestViewsMisalignedFallback(t *testing.T) {
	want := []float32{1, 2, 3, 4}
	raw := segfile.Bytes(want)
	buf := make([]byte, len(raw)+1)
	copy(buf[1:], raw)
	odd := buf[1:] // deliberately misaligned base pointer
	fs, err := segfile.View[float32](odd)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fs, want) {
		t.Fatalf("misaligned view = %v, want %v", fs, want)
	}
	if _, err := segfile.View[float32](buf[:3]); err == nil {
		t.Fatal("length not multiple of 4 accepted")
	}
	if _, err := segfile.View[uint64](buf[:7]); err == nil {
		t.Fatal("length not multiple of 8 accepted")
	}
}

// TestViewsRoundTrip covers every element type the segfile lanes alias.
func TestViewsRoundTrip(t *testing.T) {
	for _, c := range []viewCase{
		roundTrip("float32", []float32{1.5, -2.25, 3, float32(math.Inf(1))}),
		roundTrip("float64", []float64{1.5, -0.25, math.MaxFloat64}),
		roundTrip("int32", []int32{-5, 0, 7, math.MinInt32}),
		roundTrip("uint32", []uint32{0, 1, 1<<32 - 1}),
		roundTrip("uint64", []uint64{0, 1 << 40, 1<<64 - 1}),
		roundTrip("ir.Posting", []ir.Posting{{Doc: 0, TF: 1}, {Doc: 7, TF: 3}, {Doc: math.MaxInt32, TF: -1}}),
	} {
		t.Run(c.name, c.run)
	}
}
