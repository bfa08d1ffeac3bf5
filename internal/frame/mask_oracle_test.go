package frame

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// The morphology and labelling the package shipped before the row-wise
// kernels: one bounds-checked Get per neighbour, a closure per push. Kept
// only as the oracle the kernels are checked against.

func naiveErode(m *Mask) *Mask {
	out := &Mask{W: m.W, H: m.H, Bits: make([]bool, m.W*m.H)}
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			if bit(m, x, y) && bit(m, x-1, y) && bit(m, x+1, y) && bit(m, x, y-1) && bit(m, x, y+1) {
				out.Bits[y*m.W+x] = true
			}
		}
	}
	return out
}

func naiveDilate(m *Mask) *Mask {
	out := &Mask{W: m.W, H: m.H, Bits: make([]bool, m.W*m.H)}
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			if bit(m, x, y) || bit(m, x-1, y) || bit(m, x+1, y) || bit(m, x, y-1) || bit(m, x, y+1) {
				out.Bits[y*m.W+x] = true
			}
		}
	}
	return out
}

func naiveComponents(m *Mask) []Component {
	labels := make([]int32, m.W*m.H)
	var comps []Component
	var queue []int32
	for start := 0; start < len(m.Bits); start++ {
		if !m.Bits[start] || labels[start] != 0 {
			continue
		}
		label := int32(len(comps) + 1)
		comp := Component{Label: int(label), BBox: Rect{m.W, m.H, 0, 0}}
		queue = append(queue[:0], int32(start))
		labels[start] = label
		for len(queue) > 0 {
			p := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			x, y := int(p)%m.W, int(p)/m.W
			comp.Area++
			comp.SumX += int64(x)
			comp.SumY += int64(y)
			comp.BBox.X0 = min(comp.BBox.X0, x)
			comp.BBox.Y0 = min(comp.BBox.Y0, y)
			comp.BBox.X1 = max(comp.BBox.X1, x+1)
			comp.BBox.Y1 = max(comp.BBox.Y1, y+1)
			tryPush := func(nx, ny int) {
				if nx < 0 || ny < 0 || nx >= m.W || ny >= m.H {
					return
				}
				np := int32(ny*m.W + nx)
				if m.Bits[np] && labels[np] == 0 {
					labels[np] = label
					queue = append(queue, np)
				}
			}
			tryPush(x-1, y)
			tryPush(x+1, y)
			tryPush(x, y-1)
			tryPush(x, y+1)
		}
		comps = append(comps, comp)
	}
	return comps
}

// oracleMasks covers the shapes the kernels special-case: single rows and
// columns, single pixels, empty and full masks, regions touching every
// border, and random fill at several densities and sizes.
func oracleMasks() map[string]*Mask {
	rng := rand.New(rand.NewSource(20))
	random := func(w, h int, density float64) *Mask {
		m := &Mask{W: w, H: h, Bits: make([]bool, w*h)}
		for i := range m.Bits {
			m.Bits[i] = rng.Float64() < density
		}
		return m
	}
	full := func(w, h int) *Mask { return random(w, h, 2) }
	border := &Mask{W: 9, H: 7, Bits: make([]bool, 9*7)}
	for x := 0; x < 9; x++ {
		border.Bits[0*border.W+x] = true
		border.Bits[6*border.W+x] = true
	}
	for y := 0; y < 7; y++ {
		border.Bits[y*border.W+0] = true
		border.Bits[y*border.W+8] = true
	}
	border.Bits[3*border.W+4] = true
	out := map[string]*Mask{
		"0x0": &Mask{W: 0, H: 0, Bits: make([]bool, 0*0)}, "0x5": &Mask{W: 0, H: 5, Bits: make([]bool, 0*5)}, "5x0": &Mask{W: 5, H: 0, Bits: make([]bool, 5*0)},
		"1x1 set": full(1, 1), "1x1 clear": &Mask{W: 1, H: 1, Bits: make([]bool, 1*1)},
		"1xN": random(1, 17, 0.6), "Nx1": random(17, 1, 0.6),
		"2xN": random(2, 11, 0.7), "Nx2": random(11, 2, 0.7),
		"empty": &Mask{W: 13, H: 9, Bits: make([]bool, 13*9)}, "full": full(13, 9), "full 3x3": full(3, 3),
		"border ring": border,
	}
	for i, d := range []float64{0.05, 0.3, 0.5, 0.8, 0.97} {
		out["random "+string(rune('a'+i))] = random(5+rng.Intn(40), 5+rng.Intn(40), d)
	}
	return out
}

func sameMask(a, b *Mask) bool { return a.W == b.W && a.H == b.H && slices.Equal(a.Bits, b.Bits) }

// bit is m's bit at (x, y); out-of-bounds reads are unset, as erosion and
// dilation treat them.
func bit(m *Mask, x, y int) bool {
	return x >= 0 && y >= 0 && x < m.W && y < m.H && m.Bits[y*m.W+x]
}

// setBits counts the set bits of m.
func setBits(m *Mask) int {
	n := 0
	for _, b := range m.Bits {
		if b {
			n++
		}
	}
	return n
}

func TestMorphologyMatchesOracle(t *testing.T) {
	for name, m := range oracleMasks() {
		before := &Mask{W: m.W, H: m.H, Bits: slices.Clone(m.Bits)}
		for op, pair := range map[string][2]*Mask{
			"Erode":  {m.ErodeInto(new(Mask)), naiveErode(m)},
			"Dilate": {m.DilateInto(new(Mask)), naiveDilate(m)},
			"Open":   {m.ErodeInto(new(Mask)).DilateInto(new(Mask)), naiveDilate(naiveErode(m))},
			"Close":  {m.DilateInto(new(Mask)).ErodeInto(new(Mask)), naiveErode(naiveDilate(m))},
		} {
			if !sameMask(pair[0], pair[1]) {
				t.Errorf("%s: %s differs from the oracle", name, op)
			}
		}
		if !sameMask(m, before) {
			t.Errorf("%s: morphology modified its input", name)
		}
	}
}

func TestComponentsMatchOracle(t *testing.T) {
	var l Labeler // reused across masks of different sizes, as the tracker does
	for name, m := range oracleMasks() {
		want := naiveComponents(m)
		if got := new(Labeler).Components(m); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Components differs from the oracle:\n got %v\nwant %v", name, got, want)
		}
		if got := l.Components(m); len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Errorf("%s: reused Labeler differs from the oracle", name)
		}
	}
}

// The Into forms must give the same bits whatever the destination held.
func TestMorphologyIntoReusesDirtyScratch(t *testing.T) {
	var eroded, dilated Mask
	for _, name := range []string{"full", "random c", "1xN", "random a", "0x5", "border ring"} {
		m := oracleMasks()[name]
		for i := range eroded.Bits {
			eroded.Bits[i] = true
		}
		for i := range dilated.Bits {
			dilated.Bits[i] = true
		}
		if got := m.ErodeInto(&eroded); !sameMask(got, naiveErode(m)) {
			t.Errorf("%s: ErodeInto over dirty scratch differs", name)
		}
		if got := m.DilateInto(&dilated); !sameMask(got, naiveDilate(m)) {
			t.Errorf("%s: DilateInto over dirty scratch differs", name)
		}
	}
}

// ShapeOfRect is the shape of the sub-mask, in the sub-mask's coordinates.
func TestShapeOfRectMatchesCopiedSubMask(t *testing.T) {
	m := oracleMasks()["random c"]
	for _, r := range []Rect{{0, 0, m.W, m.H}, {1, 2, m.W - 1, m.H - 2}, {3, 3, 4, 4}, {2, 1, 2, 5}} {
		sub := &Mask{W: r.W(), H: r.H(), Bits: make([]bool, r.W()*r.H())}
		for y := r.Y0; y < r.Y1; y++ {
			copy(sub.Bits[(y-r.Y0)*sub.W:][:sub.W], m.Bits[y*m.W+r.X0:])
		}
		if got, want := ShapeOfRect(m, r), ShapeOfRect(sub, Rect{0, 0, sub.W, sub.H}); got != want {
			t.Errorf("rect %v: %+v, want %+v", r, got, want)
		}
	}
}
