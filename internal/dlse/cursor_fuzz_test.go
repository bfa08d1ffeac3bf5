package dlse

import (
	"encoding/base64"
	"errors"
	"strings"
	"testing"
)

// FuzzCursor locks the cursor decoder's crash-freedom contract: any token
// — a real one, a truncated one, or arbitrary hostile bytes — either
// decodes or fails with ErrBadCursor. It must never panic, hang, or
// return an unclassified error: cursors arrive straight off the wire in
// /v2/search, and a malformed page token can never take down the daemon.
// A token that does decode is then presented to a result set holding a
// short prefix: whatever offset it carries, the page costs at most one
// re-execution, to a depth inside the answer, and an offset past the end
// an empty last page and none.
func FuzzCursor(f *testing.F) {
	// Real tokens minted by the encoder, spanning the field ranges cursors
	// actually carry (tiny and huge keys, offsets, negative snapshots).
	real := []Cursor{
		encodeCursor(0, 0, 0),
		encodeCursor(1, 2, 3),
		encodeCursor(fnv64("q|find=Player|limit=0"), 17, 42),
		encodeCursor(fnv64("kw|champion"), 1<<20, 1),
		encodeCursor(^uint64(0), 1<<39, -1),
		encodeCursor(fnv64("sc|net-play"), 0, 1<<62),
	}
	for _, c := range real {
		f.Add(string(c))
	}
	// Hostile shapes: bad base64, truncations, varint abuse, padding.
	hostile := []string{
		"",
		"!!!not-base64!!!",
		"====",
		"AAAA",
		strings.Repeat("/", 100),
		strings.Repeat("A", 10000),
		string(real[2][:len(real[2])-3]), // truncated mid-varint
		string(real[2]) + "AA",           // trailing garbage
		base64.RawURLEncoding.EncodeToString([]byte{0x80}),             // unterminated varint
		base64.RawURLEncoding.EncodeToString([]byte{0xff, 0xff, 0xff}), // runaway varint
		base64.RawURLEncoding.EncodeToString([]byte{0x00}),             // key only
		base64.RawURLEncoding.EncodeToString([]byte{0x00, 0x00}),       // key+offset only
		base64.RawURLEncoding.EncodeToString(append(make([]byte, 9), 0x7f)) /* 10-byte varint */ + "",
	}
	for _, s := range hostile {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		key, off, snap, err := decodeCursor(Cursor(s))
		if err != nil {
			if !errors.Is(err, ErrBadCursor) {
				t.Fatalf("unclassified cursor error for %q: %v", s, err)
			}
			return
		}
		if off < 0 {
			t.Fatalf("decoded negative offset %d from %q", off, s)
		}
		// A token that decodes must round-trip semantically: re-encoding
		// the decoded triple and decoding again yields the same values.
		// (Bit-exact string identity cannot hold — varints admit redundant
		// encodings — but the values a cursor carries must be stable.)
		key2, off2, snap2, err := decodeCursor(encodeCursor(key, off, snap))
		if err != nil || key2 != key || off2 != off || snap2 != snap {
			t.Fatalf("round-trip mismatch: %q -> (%d,%d,%d) -> (%d,%d,%d), %v",
				s, key, off, snap, key2, off2, snap2, err)
		}
		const total, limit = 9, 3
		deepens := 0
		rs := &ResultSet{key: key, ans: &answer{total: total, items: make([]Item, 2), more: func(depth int) []Item {
			if deepens++; depth <= 2 || depth > total {
				t.Fatalf("offset %d: deepened to %d of %d", off, depth, total)
			}
			return make([]Item, depth)
		}}}
		page, err := rs.Page(Cursor(s), limit)
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		if want := max(0, min(limit, total-off)); len(page.Items) != want || deepens > 1 {
			t.Fatalf("offset %d: %d items (want %d), %d re-executions", off, len(page.Items), want, deepens)
		}
		if off >= total && deepens != 0 {
			t.Fatalf("offset %d past the end re-executed", off)
		}
		if last := off >= total-limit; last != (page.Cursor == "") {
			t.Fatalf("offset %d: cursor %q", off, page.Cursor)
		}
	})
}

// TestPageRejectsForeignCursor locks ResultSet.Page against tokens minted
// for other queries and hostile strings: always ErrBadCursor, never a
// wrong page.
func TestPageRejectsForeignCursor(t *testing.T) {
	rs := NewResultSet(make([]Item, 5), 5, "q|find=Player|limit=0", 0)
	if _, err := rs.Page(encodeCursor(fnv64("kw|other"), 2, 0), 2); !errors.Is(err, ErrBadCursor) {
		t.Fatalf("foreign cursor: %v", err)
	}
	if _, err := rs.Page(Cursor("@@@"), 2); !errors.Is(err, ErrBadCursor) {
		t.Fatalf("garbage cursor: %v", err)
	}
	// A cursor with an offset past the end yields an empty final page, not
	// an error (the answer may have shrunk across snapshots).
	page, err := rs.Page(encodeCursor(rs.key, 99, 0), 2)
	if err != nil || len(page.Items) != 0 || page.Cursor != "" {
		t.Fatalf("oversized offset: %v items=%d cursor=%q", err, len(page.Items), page.Cursor)
	}
}
