package core

// The meta-index tables. One declaration, tables below, lists each of the
// six tables' wire columns: the column's name, the field of the row struct
// (Video, Segment, FeatureValue, Object, ObjectState, Event) it holds —
// whose Go type fixes the wire type — and, for an ID column, the ID space
// its values come from. That declaration drives the stream codec, the
// decoder's header check, Append's ID shift and the counter restore after
// a decode. Five tables are slices of their row struct; states, which no
// query reads, is held in its wire form (wireRows): the column vectors the
// stream writes, which AddState encodes a row into through the same field
// accessors.
//
// Stream format (the payload of a segfile "core/seg/<ordinal>" block):
//
//	magic "CSDB" | uvarint tableCount | tables, sorted by name...
//	table: uvarint nameLen | name | uvarint colCount |
//	       cols { u8 type | uvarint nameLen | name } |
//	       uvarint rowCount | per-column vectors
//	type 0, int:    zigzag varints (int64 and int fields)
//	type 1, float:  u64 IEEE-754 bits, little-endian
//	type 2, string: uvarint len | bytes
//	type 3, bool:   packed bits, least significant first
//
// The decoder accepts exactly what the encoder writes: the six declared
// tables in declared order, each with its declared header, and no trailing
// bytes.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

const streamMagic = "CSDB"

// Wire types, as the column headers record them.
const (
	wireInt byte = iota
	wireFloat
	wireString
	wireBool
)

// column declares one wire column of a table whose rows are R.
type column[R any] struct {
	name string
	// field points into a row at the column's value: an *int64, *int,
	// *float64, *string or *bool, which fixes the wire type.
	field func(*R) any
	// ids names the ID space an ID column's values are drawn from; nil for
	// every other column. The column named "id" is the table's key; any
	// other ID column references a key, 0 meaning none.
	ids func(*IDBase) *int64
}

// wire returns the column's wire type.
func (c column[R]) wire() byte {
	var r R
	switch c.field(&r).(type) {
	case *int64, *int:
		return wireInt
	case *float64:
		return wireFloat
	case *string:
		return wireString
	case *bool:
		return wireBool
	}
	panic("core: column " + c.name + " has no wire type")
}

// table declares one meta-index table held as a slice of rows: its name,
// where its rows live in a tableSet, and its columns in wire order.
type table[R any] struct {
	name string
	rows func(*tableSet) *[]R
	cols []column[R]
}

// tableCodec is a table declaration with its row type erased, so the codec
// and Append can walk all six tables in one loop.
type tableCodec interface {
	encode(b []byte, m *tableSet) []byte
	decode(d *decoder, m *tableSet) error
	appendShifted(dst, src *tableSet, shift IDBase)
	restoreIDs(m *tableSet)
}

func videoIDs(b *IDBase) *int64   { return &b.Video }
func segmentIDs(b *IDBase) *int64 { return &b.Segment }
func objectIDs(b *IDBase) *int64  { return &b.Object }
func eventIDs(b *IDBase) *int64   { return &b.Event }

// tables declares the six meta-index tables in stream order (sorted by
// name).
var tables = [...]tableCodec{
	&table[Event]{"events", func(t *tableSet) *[]Event { return &t.events }, []column[Event]{
		{"id", func(e *Event) any { return &e.ID }, eventIDs},
		{"video", func(e *Event) any { return &e.VideoID }, videoIDs},
		{"segment", func(e *Event) any { return &e.SegmentID }, segmentIDs},
		{"kind", func(e *Event) any { return &e.Kind }, nil},
		{"start", func(e *Event) any { return &e.Start }, nil},
		{"end", func(e *Event) any { return &e.End }, nil},
		{"actor", func(e *Event) any { return &e.ActorID }, objectIDs},
		{"confidence", func(e *Event) any { return &e.Confidence }, nil},
	}},
	&table[FeatureValue]{"features", func(t *tableSet) *[]FeatureValue { return &t.features }, []column[FeatureValue]{
		{"video", func(f *FeatureValue) any { return &f.VideoID }, videoIDs},
		{"frame", func(f *FeatureValue) any { return &f.Frame }, nil},
		{"name", func(f *FeatureValue) any { return &f.Name }, nil},
		{"value", func(f *FeatureValue) any { return &f.Value }, nil},
	}},
	&table[Object]{"objects", func(t *tableSet) *[]Object { return &t.objects }, []column[Object]{
		{"id", func(o *Object) any { return &o.ID }, objectIDs},
		{"video", func(o *Object) any { return &o.VideoID }, videoIDs},
		{"segment", func(o *Object) any { return &o.SegmentID }, segmentIDs},
		{"name", func(o *Object) any { return &o.Name }, nil},
		{"start", func(o *Object) any { return &o.Start }, nil},
		{"end", func(o *Object) any { return &o.End }, nil},
	}},
	&table[Segment]{"segments", func(t *tableSet) *[]Segment { return &t.segments }, []column[Segment]{
		{"id", func(s *Segment) any { return &s.ID }, segmentIDs},
		{"video", func(s *Segment) any { return &s.VideoID }, videoIDs},
		{"start", func(s *Segment) any { return &s.Start }, nil},
		{"end", func(s *Segment) any { return &s.End }, nil},
		{"class", func(s *Segment) any { return &s.Class }, nil},
	}},
	statesTable,
	&table[Video]{"videos", func(t *tableSet) *[]Video { return &t.videos }, []column[Video]{
		{"id", func(v *Video) any { return &v.ID }, videoIDs},
		{"name", func(v *Video) any { return &v.Name }, nil},
		{"path", func(v *Video) any { return &v.Path }, nil},
		{"width", func(v *Video) any { return &v.Width }, nil},
		{"height", func(v *Video) any { return &v.Height }, nil},
		{"fps", func(v *Video) any { return &v.FPS }, nil},
		{"frames", func(v *Video) any { return &v.Frames }, nil},
	}},
}

// statesTable declares the states table, held in its wire form.
var statesTable = &wireTable[ObjectState]{"states", func(t *tableSet) *wireRows { return &t.states }, []column[ObjectState]{
	{"object", func(s *ObjectState) any { return &s.ObjectID }, objectIDs},
	{"frame", func(s *ObjectState) any { return &s.Frame }, nil},
	{"found", func(s *ObjectState) any { return &s.Found }, nil},
	{"x", func(s *ObjectState) any { return &s.X }, nil},
	{"y", func(s *ObjectState) any { return &s.Y }, nil},
	{"vx", func(s *ObjectState) any { return &s.VX }, nil},
	{"vy", func(s *ObjectState) any { return &s.VY }, nil},
	{"area", func(s *ObjectState) any { return &s.Area }, nil},
	{"bx0", func(s *ObjectState) any { return &s.BBox[0] }, nil},
	{"by0", func(s *ObjectState) any { return &s.BBox[1] }, nil},
	{"bx1", func(s *ObjectState) any { return &s.BBox[2] }, nil},
	{"by1", func(s *ObjectState) any { return &s.BBox[3] }, nil},
	{"orientation", func(s *ObjectState) any { return &s.Orientation }, nil},
	{"eccentricity", func(s *ObjectState) any { return &s.Eccentricity }, nil},
}}

// DeserializeMetaIndex decodes a meta-index written by encodeTables into a
// builder and restores its ID counters from the largest keys. The result
// does not alias b.
func DeserializeMetaIndex(b []byte) (*MetaIndex, error) {
	d := &decoder{b: b}
	if want := binary.AppendUvarint([]byte(streamMagic), uint64(len(tables))); !bytes.Equal(d.take(uint64(len(want))), want) {
		return nil, fmt.Errorf("core: decoding meta-index: stream does not start with %q and %d tables", streamMagic, len(tables))
	}
	m := &MetaIndex{}
	for _, t := range tables {
		if err := t.decode(d, &m.tableSet); err != nil {
			return nil, fmt.Errorf("core: decoding meta-index: %w", err)
		}
	}
	if len(d.b) > 0 {
		return nil, fmt.Errorf("core: decoding meta-index: %d trailing bytes", len(d.b))
	}
	for _, t := range tables {
		t.restoreIDs(&m.tableSet)
	}
	return m, nil
}

// encodeTables appends p's stream encoding under the given declarations
// to b.
func encodeTables(b []byte, p *Part, ts []tableCodec) []byte {
	b = binary.AppendUvarint(append(b, streamMagic...), uint64(len(ts)))
	for _, t := range ts {
		b = t.encode(b, &p.tableSet)
	}
	return b
}

// header appends a table's name and column declarations.
func header[R any](b []byte, name string, cols []column[R]) []byte {
	b = appendString(b, name)
	b = binary.AppendUvarint(b, uint64(len(cols)))
	for _, c := range cols {
		b = appendString(append(b, c.wire()), c.name)
	}
	return b
}

func (t *table[R]) encode(b []byte, m *tableSet) []byte {
	rows := *t.rows(m)
	b = binary.AppendUvarint(header(b, t.name, t.cols), uint64(len(rows)))
	for _, c := range t.cols {
		for i := range rows {
			b = appendCell(b, c.field(&rows[i]), i)
		}
	}
	return b
}

// appendCell appends the value p points at, row i of its column, in its
// wire form. A bool is a bit of the column's last byte; when the slice is
// full that byte may be a frozen Part's, so it is copied before it is set.
func appendCell(b []byte, p any, i int) []byte {
	switch p := p.(type) {
	case *int64:
		b = binary.AppendVarint(b, *p)
	case *int:
		b = binary.AppendVarint(b, int64(*p))
	case *float64:
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(*p))
	case *string:
		b = appendString(b, *p)
	case *bool:
		if i%8 == 0 {
			b = append(b, 0)
		}
		if *p {
			if len(b) == cap(b) {
				b = slices.Grow(b, 1)
			}
			b[len(b)-1] |= 1 << (i % 8)
		}
	}
	return b
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// rowCount reads a table's header, which must be its declaration's, and
// its row count. Every row costs at least minBits of the stream, so a row
// count the remaining bytes cannot hold fails before anything is
// allocated.
func rowCount[R any](d *decoder, name string, cols []column[R]) (int, error) {
	if h := header(nil, name, cols); !bytes.Equal(d.take(uint64(len(h))), h) {
		return 0, fmt.Errorf("table %q: header does not match its declaration", name)
	}
	minBits := uint64(0)
	for _, c := range cols {
		minBits += [...]uint64{wireInt: 8, wireFloat: 64, wireString: 8, wireBool: 1}[c.wire()]
	}
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.b))*8/minBits {
		d.fail("%d rows past the end of the stream", n)
	}
	if d.err != nil {
		return 0, fmt.Errorf("table %q: %w", name, d.err)
	}
	return int(n), nil
}

func (t *table[R]) decode(d *decoder, m *tableSet) error {
	n, err := rowCount(d, t.name, t.cols)
	if err != nil {
		return err
	}
	rows := make([]R, n)
	for _, c := range t.cols {
		var packed byte
		for i := range rows {
			switch p := c.field(&rows[i]).(type) {
			case *int64:
				*p = d.varint()
			case *int:
				*p = int(d.varint())
			case *float64:
				if b := d.take(8); b != nil {
					*p = math.Float64frombits(binary.LittleEndian.Uint64(b))
				}
			case *string:
				*p = string(d.take(d.uvarint())) // a copy: rows never alias the stream
			case *bool:
				if i%8 == 0 {
					if b := d.take(1); b != nil {
						packed = b[0]
					}
				}
				*p = packed&(1<<(i%8)) != 0
			}
		}
		if d.err != nil {
			return fmt.Errorf("table %q, column %q: %w", t.name, c.name, d.err)
		}
	}
	*t.rows(m) = rows
	return nil
}

// appendShifted appends src's rows to dst's, adding shift to every nonzero
// ID value.
func (t *table[R]) appendShifted(dst, src *tableSet, shift IDBase) {
	to := t.rows(dst)
	n := len(*to)
	*to = append(*to, *t.rows(src)...)
	for _, c := range t.cols {
		if c.ids == nil {
			continue
		}
		delta := *c.ids(&shift)
		for i := n; i < len(*to); i++ {
			if p := c.field(&(*to)[i]).(*int64); *p != 0 {
				*p += delta
			}
		}
	}
}

// restoreIDs raises the table's key counter to the largest key it holds.
func (t *table[R]) restoreIDs(m *tableSet) {
	rows := *t.rows(m)
	for _, c := range t.cols {
		if c.name != "id" {
			continue
		}
		id := c.ids(&m.ids)
		for i := range rows {
			*id = max(*id, *c.field(&rows[i]).(*int64))
		}
	}
}

// wireTable declares a meta-index table held in its wire form: where its
// wireRows live in a tableSet, and its columns in wire order, of which none
// is a key ("id").
type wireTable[R any] struct {
	name string
	rows func(*tableSet) *wireRows
	cols []column[R]
}

// wireRows is a table in its wire form: n rows, and each column's vector
// exactly as the stream writes it.
type wireRows struct {
	n    int
	cols [][]byte
}

// freeze returns w as a Part holds it, and clips w's columns, so that the
// builder's next write to a byte the Part shares copies it first.
func (w *wireRows) freeze() wireRows {
	for i := range w.cols {
		w.cols[i] = slices.Clip(w.cols[i])
	}
	return wireRows{n: w.n, cols: slices.Clone(w.cols)}
}

// push appends row r, encoding it through the column declarations.
func (t *wireTable[R]) push(w *wireRows, r *R) {
	if w.cols == nil {
		w.cols = make([][]byte, len(t.cols))
	}
	for i, c := range t.cols {
		w.cols[i] = appendCell(w.cols[i], c.field(r), w.n)
	}
	w.n++
}

func (t *wireTable[R]) encode(b []byte, m *tableSet) []byte {
	w := t.rows(m)
	b = binary.AppendUvarint(header(b, t.name, t.cols), uint64(w.n))
	for _, col := range w.cols {
		b = append(b, col...)
	}
	return b
}

// decode checks every column cell by cell, then holds a copy of its bytes.
// The unused high bits of a bool column's last byte are cleared, so that
// rows appended after it set only their own bits.
func (t *wireTable[R]) decode(d *decoder, m *tableSet) error {
	n, err := rowCount(d, t.name, t.cols)
	if err != nil || n == 0 {
		return err // an empty table holds no columns, as before its first row
	}
	w := wireRows{n: n, cols: make([][]byte, len(t.cols))}
	for k, c := range t.cols {
		start, wire := d.b, c.wire()
		for i := range n {
			switch wire {
			case wireInt:
				d.varint()
			case wireFloat:
				d.take(8)
			case wireString:
				d.take(d.uvarint())
			case wireBool:
				if i%8 == 0 {
					d.take(1)
				}
			}
		}
		if d.err != nil {
			return fmt.Errorf("table %q, column %q: %w", t.name, c.name, d.err)
		}
		w.cols[k] = bytes.Clone(start[:len(start)-len(d.b)])
		if wire == wireBool && n%8 != 0 {
			w.cols[k][len(w.cols[k])-1] &= 1<<(n%8) - 1
		}
	}
	*t.rows(m) = w
	return nil
}

// appendShifted appends src's rows to dst's column by column: an ID column
// with a nonzero shift is re-encoded with the shift added to every nonzero
// value, a bool column's bits are packed on after dst's, and any other
// column's bytes are copied. Each column is grown first, which also copies
// a last byte dst shares with a frozen Part before its bits are set.
func (t *wireTable[R]) appendShifted(dst, src *tableSet, shift IDBase) {
	to, from := t.rows(dst), t.rows(src)
	if from.n == 0 {
		return
	}
	if to.cols == nil {
		to.cols = make([][]byte, len(t.cols))
	}
	for k, c := range t.cols {
		col := from.cols[k]
		b := slices.Grow(to.cols[k], len(col)+1)
		var delta int64
		if c.ids != nil {
			delta = *c.ids(&shift)
		}
		switch {
		case delta != 0:
			d := decoder{b: col}
			for range from.n {
				if v := d.varint(); v != 0 {
					b = binary.AppendVarint(b, v+delta)
				} else {
					b = append(b, 0)
				}
			}
		case to.n%8 != 0 && c.wire() == wireBool:
			// src's bits past its n are zero, so a byte that holds none
			// of them is cut off at the end.
			sh := to.n % 8
			for _, x := range col {
				b[len(b)-1] |= x << sh
				b = append(b, x>>(8-sh))
			}
			b = b[:(to.n+from.n+7)/8]
		default:
			b = append(b, col...)
		}
		to.cols[k] = b
	}
	to.n += from.n
}

// restoreIDs restores nothing: a table held in wire form has no key column.
func (t *wireTable[R]) restoreIDs(*tableSet) {}

// decoder reads a stream from memory. The first failure sticks: every later
// read returns a zero value, so the table loops run to their end without
// checking each cell.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// take consumes n bytes; nil once the stream has failed or would end first.
func (d *decoder) take(n uint64) []byte {
	if d.err == nil && n > uint64(len(d.b)) {
		d.fail("%d bytes wanted, %d left", n, len(d.b))
	}
	if d.err != nil {
		return nil
	}
	out := d.b[:n:n]
	d.b = d.b[n:]
	return out
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}
