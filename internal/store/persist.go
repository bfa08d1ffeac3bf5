package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"
)

// Binary persistence: a DB serializes to a single stream.
//
//	magic "CSDB" | uvarint tableCount | tables...
//	table: uvarint nameLen | name | uvarint colCount |
//	       cols { u8 type | uvarint nameLen | name } |
//	       uvarint rowCount | per-column vectors
//	int vectors:    zigzag varints
//	float vectors:  u64 IEEE bits
//	string vectors: uvarint len | bytes
//	bool vectors:   packed bits
const persistMagic = "CSDB"

// Serialize writes the database to w.
func (db *DB) Serialize(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(persistMagic); err != nil {
		return fmt.Errorf("store: write magic: %w", err)
	}
	names := db.Names()
	writeUvarint(bw, uint64(len(names)))
	for _, name := range names {
		t := db.tables[name]
		if err := t.serializeTo(bw); err != nil {
			return fmt.Errorf("store: table %q: %w", name, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("store: flush: %w", err)
	}
	return nil
}

func (t *Table) serializeTo(bw *bufio.Writer) error {
	writeString(bw, t.schema.Name)
	writeUvarint(bw, uint64(len(t.schema.Columns)))
	for _, c := range t.schema.Columns {
		bw.WriteByte(byte(c.Type))
		writeString(bw, c.Name)
	}
	writeUvarint(bw, uint64(t.n))
	for ci := range t.cols {
		col := &t.cols[ci]
		switch col.typ {
		case TInt:
			for _, v := range col.ints {
				writeVarint(bw, v)
			}
		case TFloat:
			var b [8]byte
			for _, v := range col.flts {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				bw.Write(b[:])
			}
		case TString:
			for _, v := range col.strs {
				writeString(bw, v)
			}
		case TBool:
			var cur byte
			nbits := 0
			for _, v := range col.bls {
				if v {
					cur |= 1 << nbits
				}
				nbits++
				if nbits == 8 {
					bw.WriteByte(cur)
					cur, nbits = 0, 0
				}
			}
			if nbits > 0 {
				bw.WriteByte(cur)
			}
		}
	}
	return nil
}

// Deserialize reads a database written by Serialize.
func Deserialize(r io.Reader) (*DB, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(persistMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("store: read magic: %w", err)
	}
	if string(magic) != persistMagic {
		return nil, fmt.Errorf("store: bad magic %q", magic)
	}
	nTables, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("store: table count: %w", err)
	}
	if nTables > 1<<20 {
		return nil, fmt.Errorf("store: implausible table count %d", nTables)
	}
	db := NewDB()
	for i := uint64(0); i < nTables; i++ {
		t, err := readTable(br)
		if err != nil {
			return nil, fmt.Errorf("store: table %d: %w", i, err)
		}
		if _, dup := db.tables[t.schema.Name]; dup {
			return nil, fmt.Errorf("store: table %d: %w: %q", i, ErrDupTable, t.schema.Name)
		}
		db.tables[t.schema.Name] = t
	}
	return db, nil
}

// maxPrealloc bounds speculative slice preallocation while deserializing: a
// corrupt or hostile stream can claim billions of rows in a few bytes, and
// allocating that up front would abort the process (unrecoverable OOM)
// before the row reads could fail cleanly at EOF. Columns grow by append
// past this, so memory use stays proportional to bytes actually read.
const maxPrealloc = 1 << 16

func preallocRows(n int) int {
	if n > maxPrealloc {
		return maxPrealloc
	}
	return n
}

func readTable(br *bufio.Reader) (*Table, error) {
	name, err := readString(br)
	if err != nil {
		return nil, err
	}
	nCols, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if nCols == 0 || nCols > 1<<16 {
		return nil, fmt.Errorf("implausible column count %d", nCols)
	}
	s := Schema{Name: name}
	for c := uint64(0); c < nCols; c++ {
		tb, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		if tb > byte(TBool) {
			return nil, fmt.Errorf("bad column type %d", tb)
		}
		cname, err := readString(br)
		if err != nil {
			return nil, err
		}
		s.Columns = append(s.Columns, Column{Name: cname, Type: Type(tb)})
	}
	t, err := NewTable(s)
	if err != nil {
		return nil, err
	}
	nRows64, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if nRows64 > 1<<32 {
		return nil, fmt.Errorf("implausible row count %d", nRows64)
	}
	nRows := int(nRows64)
	for ci := range t.cols {
		col := &t.cols[ci]
		switch col.typ {
		case TInt:
			col.ints = make([]int64, 0, preallocRows(nRows))
			for i := 0; i < nRows; i++ {
				v, err := binary.ReadVarint(br)
				if err != nil {
					return nil, err
				}
				col.ints = append(col.ints, v)
			}
		case TFloat:
			col.flts = make([]float64, 0, preallocRows(nRows))
			var b [8]byte
			for i := 0; i < nRows; i++ {
				if _, err := io.ReadFull(br, b[:]); err != nil {
					return nil, err
				}
				col.flts = append(col.flts, math.Float64frombits(binary.LittleEndian.Uint64(b[:])))
			}
		case TString:
			col.strs = make([]string, 0, preallocRows(nRows))
			for i := 0; i < nRows; i++ {
				v, err := readString(br)
				if err != nil {
					return nil, err
				}
				col.strs = append(col.strs, v)
			}
		case TBool:
			col.bls = make([]bool, 0, preallocRows(nRows))
			nBytes := (nRows + 7) / 8
			var chunk [4096]byte
			for read := 0; read < nBytes; {
				n := nBytes - read
				if n > len(chunk) {
					n = len(chunk)
				}
				if _, err := io.ReadFull(br, chunk[:n]); err != nil {
					return nil, err
				}
				for i := 0; i < n*8 && len(col.bls) < nRows; i++ {
					col.bls = append(col.bls, chunk[i/8]&(1<<(i%8)) != 0)
				}
				read += n
			}
		}
	}
	t.n = nRows
	return t, nil
}

func writeUvarint(bw *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	bw.Write(buf[:n])
}

func writeVarint(bw *bufio.Writer, v int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	bw.Write(buf[:n])
}

func writeString(bw *bufio.Writer, s string) {
	writeUvarint(bw, uint64(len(s)))
	bw.WriteString(s)
}

func readString(br *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", err
	}
	if n > 1<<24 {
		return "", fmt.Errorf("implausible string length %d", n)
	}
	// Chunked read: a claimed length is only paid for as bytes arrive, so a
	// corrupt header cannot force a large up-front allocation.
	remaining := int(n)
	grow := remaining
	if grow > maxPrealloc {
		grow = maxPrealloc
	}
	var sb strings.Builder
	sb.Grow(grow)
	var chunk [4096]byte
	for remaining > 0 {
		c := remaining
		if c > len(chunk) {
			c = len(chunk)
		}
		if _, err := io.ReadFull(br, chunk[:c]); err != nil {
			return "", err
		}
		sb.Write(chunk[:c])
		remaining -= c
	}
	return sb.String(), nil
}
