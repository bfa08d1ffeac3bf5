package ir

// Front-coded string tables: the text lane's term dictionary and its page
// names. Both are stored as one byte block of entries and one column of
// restart offsets (Witten, Moffat & Bell, Managing Gigabytes, ch. 4). An
// entry is a uvarint shared-prefix length p, a uvarint suffix length n and
// the n suffix bytes: the entry is the first p bytes of the entry before it
// followed by the suffix. Every restartEvery-th entry is a restart head,
// which shares nothing (p = 0) and so holds its string whole, and the head
// column holds each head's byte offset. Entry i is decoded from the head of
// its block, at most restartEvery-1 entries before it.
//
// A heap build and an opened file hold the same two arrays: Freeze writes
// the form the opener maps, and both run the same lookup and naming code.
// A term lookup binary-searches the heads, which alias the table's bytes,
// and scans one block comparing in place; it allocates nothing. Names are
// decoded only for the hits a caller returns (nameDocs), one buffer for all.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"unsafe"

	"repro/internal/segfile"
)

// restartEvery is the restart interval of the front-coded tables, a
// constant of the format: every restartEvery-th entry is stored whole. A
// lookup then scans at most 7 entries of its block, and a name decodes
// through at most 7 before it. At dlbench's site an interval of 16 stores
// 11,392 B less (2.4 % of the text cache), but naming a ten-item page took
// about 30 % longer (1.50 against 1.15 µs) and a term lookup about 5 %.
const restartEvery = 8

// frontTable is a front-coded table of n strings: data holds the entries,
// heads the byte offset of every restartEvery-th one.
type frontTable struct {
	data  []byte
	heads column
	n     int
}

// headsFor returns the number of restart heads of a table of n entries.
func headsFor(n int) int { return (n + restartEvery - 1) / restartEvery }

// Len returns the number of strings in the table.
func (t *frontTable) Len() int { return t.n }

// header reads the entry at byte offset off of a checked table: its
// shared-prefix length, and the offset and length of its suffix, which ends
// where the next entry starts.
func (t *frontTable) header(off int) (p, at, n int) {
	d := t.data
	for s := 0; ; s += 7 {
		b := d[off]
		off++
		p |= int(b&0x7f) << s
		if b < 0x80 {
			break
		}
	}
	for s := 0; ; s += 7 {
		b := d[off]
		off++
		n |= int(b&0x7f) << s
		if b < 0x80 {
			break
		}
	}
	return p, off, n
}

// str views b as a string without copying it.
func str(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// find returns the position of s in the sorted table, by binary search over
// the restart heads and a scan of one block, and whether the table holds
// it; an absent s's position is the number of entries before it.
func (t *frontTable) find(s string) (int, bool) {
	switch heads := t.heads.vals.(type) {
	case []uint8:
		return findIn(t, heads, s)
	case []uint16:
		return findIn(t, heads, s)
	case []uint32:
		return findIn(t, heads, s)
	}
	return findIn(t, t.heads.vals.([]uint64), s)
}

// findIn is find over the table's head offsets at their width. The scan
// compares each entry in place: while it runs, the entries so far are less
// than s and m is the length of the current one's common prefix with s. An
// entry sharing more than m bytes with its predecessor is less than s too,
// with the same m; one sharing p <= m bytes agrees with s on them, so its
// suffix alone compares with the rest of s.
func findIn[H width | uint64](t *frontTable, heads []H, s string) (int, bool) {
	// b is the last block whose head is at most s.
	lo, hi := 0, len(heads)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if _, at, n := t.header(int(heads[mid])); str(t.data[at:at+n]) <= s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	b := lo - 1
	if b < 0 {
		return 0, false
	}
	i := b * restartEvery
	_, at, n := t.header(int(heads[b]))
	off := at + n
	first := str(t.data[at:off])
	if first == s {
		return i, true
	}
	m := commonPrefix(first, s)
	for i++; i < min((b+1)*restartEvery, t.n); i++ {
		p, at, n := t.header(off)
		off = at + n
		if p > m {
			continue
		}
		suffix, rest := str(t.data[at:off]), s[p:]
		c := commonPrefix(suffix, rest)
		switch {
		case c == len(suffix) && c == len(rest):
			return i, true
		case c == len(rest) || c < len(suffix) && suffix[c] > rest[c]:
			return i, false // the entry is past s
		}
		m = p + c
	}
	return i, false
}

// commonPrefix returns the length of the longest common prefix of a and b.
func commonPrefix(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// lenAt returns the length of entry i and the length of the longest entry
// from its restart head to it.
func (t *frontTable) lenAt(i int) (n, longest int) {
	off := int(t.heads.at(i / restartEvery))
	for j := i % restartEvery; ; j-- {
		p, at, l := t.header(off)
		n, off = p+l, at+l
		longest = max(longest, n)
		if j == 0 {
			return n, longest
		}
	}
}

// appendAt appends entry i to buf, decoding forward from its restart head:
// each entry on the way is written over the one before, so buf must have
// room for the longest of them (lenAt) to append without growing.
func (t *frontTable) appendAt(buf []byte, i int) []byte {
	start := len(buf)
	off := int(t.heads.at(i / restartEvery))
	for j := i % restartEvery; ; j-- {
		p, at, l := t.header(off)
		off = at + l
		buf = append(buf[:start+p], t.data[at:off]...)
		if j == 0 {
			return buf
		}
	}
}

// At returns entry i as a new string.
func (t *frontTable) At(i int) string { return string(t.appendAt(nil, i)) }

// nameDocs names n documents with one allocation: at(i) returns the table
// holding document i's name and its entry there, and set(i, name) receives
// the name, which aliases the one buffer every name of the call is decoded
// into. A first walk over the entries sizes the buffer: the names, and room
// past the last for the longest entry any of them decodes through.
func nameDocs(n int, at func(i int) (*frontTable, int), set func(i int, name string)) {
	size, room := 0, 0
	for i := 0; i < n; i++ {
		t, e := at(i)
		l, longest := t.lenAt(e)
		size, room = size+l, max(room, longest)
	}
	buf := make([]byte, 0, size+room)
	for i := 0; i < n; i++ {
		t, e := at(i)
		start := len(buf)
		buf = t.appendAt(buf, e)
		set(i, str(buf[start:]))
	}
}

// frontBuilder front-codes strings added one at a time: the dictionary at
// Freeze, and each document's name as it is added.
type frontBuilder struct {
	data  []byte
	heads []uint64
	n     int
	last  string
}

// add appends s as the table's next entry, sharing the longest prefix it
// has in common with the entry before it, or nothing at a restart head.
func (b *frontBuilder) add(s string) {
	p := 0
	if b.n%restartEvery == 0 {
		b.heads = append(b.heads, uint64(len(b.data)))
	} else {
		p = commonPrefix(b.last, s)
	}
	b.data = binary.AppendUvarint(b.data, uint64(p))
	b.data = binary.AppendUvarint(b.data, uint64(len(s)-p))
	b.data = append(b.data, s[p:]...)
	b.n++
	b.last = s
}

// table returns the built table.
func (b *frontBuilder) table() frontTable {
	return frontTable{data: b.data, heads: columnOf(b.heads), n: b.n}
}

// readUvarint reads the uvarint at data[at:] of an unchecked table and
// returns it and the offset after it, or -1 for an offset past a malformed
// or missing one (and for at = -1).
func readUvarint(data []byte, at int) (uint64, int) {
	if at >= 0 && at < len(data) && data[at] < 0x80 {
		return uint64(data[at]), at + 1
	}
	if at < 0 || at > len(data) {
		return 0, -1
	}
	v, n := binary.Uvarint(data[at:])
	if n <= 0 {
		return 0, -1
	}
	return v, at + n
}

// readFront opens the front-coded table of n entries stored in blocks
// dataName and headName, whose head offsets are width bytes wide, and
// checks in one pass over its entries that each decodes inside the block
// and shares at most the length of the entry before it, that each head
// shares nothing and sits where its block's entries end, and that the last
// entry ends the block. A sorted table's entries must also be non-empty,
// ascending and distinct. The blocks are structural: the lookups and the
// naming then decode without checking.
func readFront(r *segfile.Reader, dataName, headName string, n int, width uint8, sorted bool) (frontTable, error) {
	data, err := segfile.Structural[byte](r, dataName, -1)
	if err != nil {
		return frontTable{}, err
	}
	heads, err := readColumn(r, headName, headsFor(n), width, 8, true)
	if err != nil {
		return frontTable{}, err
	}
	var cur []byte   // the entry before, decoded, in a sorted table
	at, prev := 0, 0 // the next entry's offset, and the length of the one before
	for i := 0; i < n; i++ {
		head := i%restartEvery == 0
		if head && heads.at(i/restartEvery) != uint64(at) {
			return frontTable{}, fmt.Errorf("ir: block %q: restart head %d at byte %d, its block's entries end at %d", headName, i/restartEvery, heads.at(i/restartEvery), at)
		}
		p, next := readUvarint(data, at)
		sl, next := readUvarint(data, next)
		if next < 0 || sl > uint64(len(data)-next) {
			return frontTable{}, fmt.Errorf("ir: block %q: entry %d at byte %d runs past the block's %d bytes", dataName, i, at, len(data))
		}
		if head && p != 0 {
			return frontTable{}, fmt.Errorf("ir: block %q: restart head %d shares %d bytes", dataName, i/restartEvery, p)
		}
		if p > uint64(prev) {
			return frontTable{}, fmt.Errorf("ir: block %q: entry %d shares %d bytes of a %d-byte entry", dataName, i, p, prev)
		}
		suffix := data[next : next+int(sl)]
		at, prev = next+int(sl), int(p)+len(suffix)
		if sorted {
			if prev == 0 || i > 0 && bytes.Compare(suffix, cur[p:]) <= 0 {
				return frontTable{}, fmt.Errorf("ir: block %q: entry %d (%q) breaks the sorted dictionary", dataName, i, append(cur[:p:p], suffix...))
			}
			cur = append(cur[:p], suffix...)
		}
	}
	if at != len(data) {
		return frontTable{}, fmt.Errorf("ir: block %q holds %d bytes past its %d entries", dataName, len(data)-at, n)
	}
	return frontTable{data: data, heads: heads, n: n}, nil
}
