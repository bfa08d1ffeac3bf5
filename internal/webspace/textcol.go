package webspace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/segfile"
)

// textBlock is how many rows of a text attribute one compressed block
// holds.
const textBlock = 64

// A text block is one DEFLATE stream of its rows: the textBlock row
// lengths as uvarints, then the rows' bytes.

// sealers pools the writers that compress text blocks: a flate.Writer
// holds about 1 MB of hash tables, so none is kept past the pool's next
// collection.
var sealers = sync.Pool{New: func() any {
	zw, _ := flate.NewWriter(nil, flate.BestSpeed) // a valid level cannot fail
	return &sealer{zw: zw}
}}

type sealer struct {
	zw   *flate.Writer
	lens []byte
	out  bytes.Buffer
}

// seal compresses the column's open block, which holds textBlock rows,
// into a new block and empties it.
func (c *column) seal() {
	s := sealers.Get().(*sealer)
	s.out.Reset()
	s.zw.Reset(&s.out)
	s.lens = s.lens[:0]
	for i := range textBlock {
		s.lens = binary.AppendUvarint(s.lens, uint64(c.str.Off[i+1]-c.str.Off[i]))
	}
	// Writes to a bytes.Buffer do not fail.
	s.zw.Write(s.lens)
	s.zw.Write(c.str.Data)
	s.zw.Close()
	c.blocks = append(c.blocks, bytes.Clone(s.out.Bytes()))
	sealers.Put(s)
	c.str.Data, c.str.Off = c.str.Data[:0], c.str.Off[:0]
}

// textReader reads rows of string and text columns, decoding a text row's
// block into its own buffer; it keeps the last block it decoded.
type textReader struct {
	inf   inflater
	col   *column
	block int
	raw   []byte
	rows  segfile.Table // the decoded block, aliasing raw
}

// at returns row's value in c, a string or text column. The string aliases
// the column, or for a sealed text row the reader's buffer, valid until
// its next call.
func (r *textReader) at(c *column, row int32) string {
	if c.typ != AttrText {
		return c.str.At(int(row))
	}
	b := int(row) / textBlock
	if b == len(c.blocks) {
		return c.str.At(int(row) % textBlock)
	}
	if r.col != c || r.block != b {
		r.decode(c, b)
	}
	return r.rows.At(int(row) % textBlock)
}

// decode inflates block b of c and reads its row lengths.
func (r *textReader) decode(c *column, b int) {
	var err error
	if r.raw, err = r.inf.inflate(r.raw[:0], c.blocks[b]); err != nil {
		panic(fmt.Sprintf("webspace: text block %d: %v", b, err)) // seal wrote it
	}
	data, off := r.raw, append(r.rows.Off[:0], 0)
	for range textBlock {
		n, k := binary.Uvarint(data)
		data = data[k:]
		off = append(off, off[len(off)-1]+uint32(n))
	}
	r.col, r.block, r.rows = c, b, segfile.Table{Data: data, Off: off}
}
