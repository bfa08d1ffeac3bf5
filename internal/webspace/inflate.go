package webspace

import (
	"errors"
	"math/bits"
)

// inflater decodes a DEFLATE stream (RFC 1951) as compress/flate writes a
// text block at BestSpeed, in stored and dynamic-Huffman blocks (it refuses
// the fixed-Huffman blocks that level never writes), onto the end of a
// caller's buffer, and allocates nothing of its own. The standard library's reader allocates link tables for every
// dynamic block whose codes pass 9 bits, which almost every text block has,
// so a contains scan through it would allocate per block. This decoder
// looks a code of at most fastBits bits up in a table kept inside its own
// struct, and walks a longer one a bit at a time over the canonical code
// counts (the method of zlib's puff.c).
type inflater struct {
	in        []byte
	pos       int    // next byte of in to load
	bits      uint32 // loaded bits not yet read, least significant first
	nbits     uint
	lit, dist huffman
	lens      [maxLitCodes + maxDistCodes]uint8
}

// huffman is a canonical Huffman code: how many codes each length has, the
// symbols in code order, and fast, which maps the next fastBits bits of a
// stream to symbol<<4 | length for every code of at most fastBits bits (0
// where a longer code starts).
type huffman struct {
	count  [16]uint16
	symbol [maxLitCodes]uint16
	fast   [1 << fastBits]uint16
}

const (
	maxLitCodes  = 286
	maxDistCodes = 30
	fastBits     = 9
)

var errCorruptBlock = errors.New("webspace: corrupt text block")

var (
	lenBase   = [29]uint16{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lenExtra  = [29]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase  = [30]uint16{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra = [30]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
	// codeOrder is the order a dynamic block sends its code-length code in.
	codeOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
)

// build makes h the canonical code of the given code lengths. It refuses
// an over-subscribed set; an incomplete one decodes until a code it lacks.
func (h *huffman) build(lens []uint8) bool {
	h.count = [16]uint16{}
	for _, l := range lens {
		h.count[l]++
	}
	left := 1
	for l := 1; l < 16; l++ {
		left = left<<1 - int(h.count[l])
		if left < 0 {
			return false
		}
	}
	var offs [16]uint16
	for l := 1; l < 15; l++ {
		offs[l+1] = offs[l] + h.count[l]
	}
	for sym, l := range lens {
		if l != 0 {
			h.symbol[offs[l]] = uint16(sym)
			offs[l]++
		}
	}
	h.fast = [1 << fastBits]uint16{}
	code, i := 0, 0
	for l := 1; l <= fastBits; l++ {
		for range h.count[l] {
			// Codes are sent most significant bit first, so the table is
			// indexed by the code's bits reversed.
			for j := int(bits.Reverse16(uint16(code)) >> (16 - l)); j < len(h.fast); j += 1 << l {
				h.fast[j] = h.symbol[i]<<4 | uint16(l)
			}
			code, i = code+1, i+1
		}
		code <<= 1
	}
	return true
}

// need loads bytes until at least n (at most 24) bits are unread; false if
// the stream ends first.
func (f *inflater) need(n uint) bool {
	for f.nbits < n {
		if f.pos == len(f.in) {
			return false
		}
		f.bits |= uint32(f.in[f.pos]) << f.nbits
		f.pos++
		f.nbits += 8
	}
	return true
}

// take reads n bits; -1 if the stream ends first.
func (f *inflater) take(n uint8) int {
	if !f.need(uint(n)) {
		return -1
	}
	v := int(f.bits & (1<<n - 1))
	f.bits >>= n
	f.nbits -= uint(n)
	return v
}

// decode reads one symbol of h; -1 if the stream ends or holds a code h
// lacks.
func (f *inflater) decode(h *huffman) int {
	if f.need(fastBits) {
		if e := h.fast[f.bits&(1<<fastBits-1)]; e != 0 {
			n := uint(e & 15)
			f.bits >>= n
			f.nbits -= n
			return int(e >> 4)
		}
	}
	code, first, index := 0, 0, 0
	for l := 1; l < 16; l++ {
		b := f.take(1)
		if b < 0 {
			return -1
		}
		code |= b
		count := int(h.count[l])
		if code-first < count {
			return int(h.symbol[index+code-first])
		}
		index += count
		first = (first + count) << 1
		code <<= 1
	}
	return -1
}

// inflate appends the decoded stream in to dst.
func (f *inflater) inflate(dst, in []byte) ([]byte, error) {
	*f = inflater{in: in}
	start := len(dst)
	for {
		last, typ := f.take(1), f.take(2)
		var err error
		switch typ {
		case 0:
			dst, err = f.stored(dst)
		case 2:
			if err = f.dynamic(); err == nil {
				dst, err = f.codes(dst, start)
			}
		default:
			err = errCorruptBlock
		}
		if err != nil || last == 1 {
			return dst, err
		}
	}
}

// stored copies a stored block, which starts at the next byte boundary:
// the unread bits of the current byte are dropped, and whole bytes loaded
// ahead are given back.
func (f *inflater) stored(dst []byte) ([]byte, error) {
	f.pos -= int(f.nbits / 8)
	f.bits, f.nbits = 0, 0
	in := f.in[f.pos:]
	if len(in) < 4 {
		return dst, errCorruptBlock
	}
	n := int(in[0]) | int(in[1])<<8
	if nc := int(in[2]) | int(in[3])<<8; n != ^nc&0xffff || len(in) < 4+n {
		return dst, errCorruptBlock
	}
	f.pos += 4 + n
	return append(dst, in[4:4+n]...), nil
}

// dynamic reads a dynamic block's header into f.lit and f.dist.
func (f *inflater) dynamic() error {
	nlen, ndist, ncode := f.take(5)+257, f.take(5)+1, f.take(4)+4
	if nlen < 257 || nlen > 286 || ndist < 1 || ndist > 30 || ncode < 4 {
		return errCorruptBlock
	}
	lens := f.lens[:19]
	clear(lens)
	for _, sym := range codeOrder[:ncode] {
		l := f.take(3)
		if l < 0 {
			return errCorruptBlock
		}
		lens[sym] = uint8(l)
	}
	if !f.lit.build(lens) {
		return errCorruptBlock
	}
	lens = f.lens[:nlen+ndist]
	for i := 0; i < len(lens); {
		sym := f.decode(&f.lit)
		if sym < 16 {
			if sym < 0 {
				return errCorruptBlock
			}
			lens[i] = uint8(sym)
			i++
			continue
		}
		var prev uint8
		n := 0
		switch sym {
		case 16:
			if i == 0 {
				return errCorruptBlock
			}
			prev, n = lens[i-1], 3+f.take(2)
		case 17:
			n = 3 + f.take(3)
		default:
			n = 11 + f.take(7)
		}
		if n < 3 || i+n > len(lens) {
			return errCorruptBlock
		}
		for end := i + n; i < end; i++ {
			lens[i] = prev
		}
	}
	if lens[256] == 0 || !f.lit.build(lens[:nlen]) || !f.dist.build(lens[nlen:]) {
		return errCorruptBlock
	}
	return nil
}

// codes decodes a compressed block's symbols onto dst; a match may reach
// back only to start, where this stream's output begins.
func (f *inflater) codes(dst []byte, start int) ([]byte, error) {
	for {
		sym := f.decode(&f.lit)
		switch {
		case sym < 0:
			return dst, errCorruptBlock
		case sym < 256:
			dst = append(dst, byte(sym))
			continue
		case sym == 256:
			return dst, nil
		}
		sym -= 257
		if sym >= len(lenBase) {
			return dst, errCorruptBlock
		}
		n := int(lenBase[sym]) + f.take(lenExtra[sym])
		d := f.decode(&f.dist)
		if d < 0 || d >= len(distBase) {
			return dst, errCorruptBlock
		}
		back := int(distBase[d]) + f.take(distExtra[d])
		if n < 3 || back < 1 || back > len(dst)-start {
			return dst, errCorruptBlock
		}
		// A match longer than its distance repeats the bytes it copies.
		for n > 0 {
			from := len(dst) - back
			k := min(n, back)
			dst = append(dst, dst[from:from+k]...)
			n -= k
		}
	}
}
