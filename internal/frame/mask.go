package frame

// Mask is a binary raster, used for player segmentation: after court-colour
// subtraction the foreground pixels form a mask whose largest connected
// component is taken to be the player.
type Mask struct {
	W, H int
	Bits []bool
}

// Reset resizes the mask to w×h and clears it, reusing its storage when it
// is large enough: the form for scratch masks that live across frames.
func (m *Mask) Reset(w, h int) {
	m.resize(w, h)
	clear(m.Bits)
}

// resize is Reset without the clear, for callers that write every bit.
func (m *Mask) resize(w, h int) {
	if n := w * h; cap(m.Bits) < n {
		m.Bits = make([]bool, n)
	} else {
		m.Bits = m.Bits[:n]
	}
	m.W, m.H = w, h
}

// row returns row y of the mask.
func (m *Mask) row(y int) []bool { return m.Bits[y*m.W : (y+1)*m.W] }

// ErodeInto applies one pass of 4-neighbour binary erosion into dst
// (resized to match, and returned), which must not be m itself: a pixel
// stays set only if it and all four direct neighbours are set. Border pixels
// treat out-of-bounds neighbours as unset, so erosion shrinks regions
// touching the border. It works a row at a time on the row and its
// two neighbours, with no per-pixel bounds test.
func (m *Mask) ErodeInto(dst *Mask) *Mask {
	dst.resize(m.W, m.H)
	w := m.W
	for y := 0; y < m.H && w > 0; y++ {
		out := dst.row(y)
		if y == 0 || y == m.H-1 {
			clear(out) // a neighbour is out of bounds
			continue
		}
		row, up, down := m.row(y), m.row(y-1), m.row(y+1)
		out[0], out[w-1] = false, false
		for x := 1; x < w-1; x++ {
			out[x] = row[x] && row[x-1] && row[x+1] && up[x] && down[x]
		}
	}
	return dst
}

// DilateInto applies one pass of 4-neighbour binary dilation into dst
// (resized to match, and returned), which must not be m itself: a pixel
// becomes set if it or any direct neighbour is set. Every set pixel of a
// row marks itself and its neighbours, so an empty stretch costs one test a
// pixel.
func (m *Mask) DilateInto(dst *Mask) *Mask {
	dst.Reset(m.W, m.H)
	w := m.W
	for y := 0; y < m.H; y++ {
		out := dst.row(y)
		for x, set := range m.row(y) {
			if !set {
				continue
			}
			out[x] = true
			if x > 0 {
				out[x-1] = true
			}
			if x < w-1 {
				out[x+1] = true
			}
			if y > 0 {
				dst.Bits[(y-1)*w+x] = true
			}
			if y < m.H-1 {
				dst.Bits[(y+1)*w+x] = true
			}
		}
	}
	return dst
}

// Component is one 4-connected region of set pixels.
type Component struct {
	// Label is the 1-based component identifier.
	Label int
	// Area is the number of pixels in the component.
	Area int
	// BBox is the tight bounding rectangle.
	BBox Rect
	// SumX and SumY accumulate coordinates for centroid computation.
	SumX, SumY int64
}

// Centroid returns the component's mass centre.
func (c Component) Centroid() (float64, float64) {
	if c.Area == 0 {
		return 0, 0
	}
	return float64(c.SumX) / float64(c.Area), float64(c.SumY) / float64(c.Area)
}

// Labeler is the working memory of connected-component labelling — the
// per-pixel label buffer, the flood-fill stack and the component list —
// kept so that labelling one mask per frame allocates nothing in steady
// state. The zero value is ready to use.
type Labeler struct {
	labels []int32
	stack  []int32
	comps  []Component
}

// Components labels all 4-connected regions of set pixels of m using an
// iterative flood fill and returns them in label order, which follows
// raster-scan discovery order. The returned slice is overwritten by the next
// call.
func (l *Labeler) Components(m *Mask) []Component {
	w, h := m.W, m.H
	if cap(l.labels) < len(m.Bits) {
		l.labels = make([]int32, len(m.Bits))
	}
	labels := l.labels[:len(m.Bits)]
	clear(labels)
	bits := m.Bits
	comps, stack := l.comps[:0], l.stack
	for start, set := range bits {
		if !set || labels[start] != 0 {
			continue
		}
		label := int32(len(comps) + 1)
		comp := Component{Label: int(label), BBox: Rect{w, h, 0, 0}}
		stack = append(stack[:0], int32(start))
		labels[start] = label
		for len(stack) > 0 {
			p := int(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
			y := p / w
			x := p - y*w
			comp.Area++
			comp.SumX += int64(x)
			comp.SumY += int64(y)
			comp.BBox.X0 = min(comp.BBox.X0, x)
			comp.BBox.Y0 = min(comp.BBox.Y0, y)
			comp.BBox.X1 = max(comp.BBox.X1, x+1)
			comp.BBox.Y1 = max(comp.BBox.Y1, y+1)
			if x > 0 && bits[p-1] && labels[p-1] == 0 {
				labels[p-1] = label
				stack = append(stack, int32(p-1))
			}
			if x < w-1 && bits[p+1] && labels[p+1] == 0 {
				labels[p+1] = label
				stack = append(stack, int32(p+1))
			}
			if y > 0 && bits[p-w] && labels[p-w] == 0 {
				labels[p-w] = label
				stack = append(stack, int32(p-w))
			}
			if y < h-1 && bits[p+w] && labels[p+w] == 0 {
				labels[p+w] = label
				stack = append(stack, int32(p+w))
			}
		}
		comps = append(comps, comp)
	}
	l.comps, l.stack = comps, stack
	return comps
}
