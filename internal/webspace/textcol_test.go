package webspace

import (
	"bytes"
	"compress/flate"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// heldBytes is what a text column holds in the heap: its compressed blocks,
// their slice headers and the open block.
func (c *column) heldBytes() int {
	n := 24*cap(c.blocks) + cap(c.str.Data) + 4*cap(c.str.Off)
	for _, b := range c.blocks {
		n += cap(b)
	}
	return n
}

// textValue draws a text value: empty, ASCII, multi-byte runes, invalid
// UTF-8, now and then long enough that a block passes flate's 64 KB
// stored-block size.
func textValue(rng *rand.Rand) string {
	parts := []string{"", "a", "Left", "HANDED", " ", "Zürich", "straße", "İ", "Σ", "ǅ", "\xff", "\xe2\x82", "final", "K"}
	var sb strings.Builder
	n := rng.Intn(12)
	if rng.Intn(40) == 0 {
		n = 3000
	}
	for ; n > 0; n-- {
		sb.WriteString(parts[rng.Intn(len(parts))])
	}
	return sb.String()
}

// checkText fails t unless every object of class reads back want[id] (""
// for an unset row, absent from want) through StringAttr, and contains
// answers as a strings.ToLower scan of want does for each needle.
func checkText(t *testing.T, w *Webspace, class, attr string, want map[int64]string, needles []string) {
	t.Helper()
	for _, id := range w.All(class) {
		o, _ := w.Get(id)
		if got := o.StringAttr(attr); got != want[id] {
			t.Fatalf("object %d: StringAttr(%q) = %q, want %q", id, attr, got, want[id])
		}
	}
	for _, needle := range needles {
		got, err := w.Run(Query{Class: class, Where: []Constraint{{Attr: attr, Op: OpContains, Val: needle}}})
		if err != nil {
			t.Fatal(err)
		}
		ids := []int64{}
		for _, o := range got {
			ids = append(ids, o.ID)
		}
		ref := []int64{}
		for _, id := range w.All(class) {
			if v, ok := want[id]; ok && strings.Contains(strings.ToLower(v), strings.ToLower(needle)) {
				ref = append(ref, id)
			}
		}
		if !reflect.DeepEqual(ids, ref) {
			t.Fatalf("%s.%s contains %q = %v, a strings.ToLower scan says %v", class, attr, needle, ids, ref)
		}
	}
}

// TestTextColumnRoundTrip: a text attribute of a generated site, grown by
// objects appended after generation across several block boundaries, reads
// back every value, set or not, and answers contains as a reference scan
// does.
func TestTextColumnRoundTrip(t *testing.T) {
	site, err := GenerateAusOpen(SiteConfig{Players: 8, YearStart: 1990, YearEnd: 2001, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	w := site.W
	want := map[int64]string{}
	for _, p := range site.Pages {
		if o, _ := w.Get(p.ObjectID); o.Class == "Interview" {
			want[o.ID] = p.Text
		}
	}
	if len(want) != 24 {
		t.Fatalf("the site holds %d interviews, want 24", len(want))
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 3*textBlock+5; i++ {
		var attrs map[string]any
		v := textValue(rng)
		if i%9 != 4 {
			attrs = map[string]any{"text": v}
		}
		o, err := w.NewObject("Interview", attrs)
		if err != nil {
			t.Fatal(err)
		}
		if attrs != nil {
			want[o.ID] = v
		}
	}
	checkText(t, w, "Interview", "text", want, []string{"", "left-handed", "ZÜRICH", "STRAßE", "strasse", "�", "k", "melbourne", "1995 final", "a\xffa"})
}

// TestTextColumnCompressed: at dlbench's 8,192 players the bio column holds
// at most a quarter of its raw bytes.
func TestTextColumnCompressed(t *testing.T) {
	site, err := GenerateAusOpen(SiteConfig{Players: 8192, YearStart: 1962, YearEnd: 2001, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	raw := 0
	for _, id := range site.W.All("Player") {
		o, _ := site.W.Get(id)
		raw += len(o.StringAttr("bio"))
	}
	tab := site.W.tables["Player"]
	i, _ := tab.class.attrIndex("bio")
	held := tab.cols[i].heldBytes()
	t.Logf("bio: %d raw bytes held in %d (%.1fx)", raw, held, float64(raw)/float64(held))
	if raw < 1_300_000 || held > raw/4 {
		t.Fatalf("bio: %d raw bytes held in %d, want at most a quarter", raw, held)
	}
}

// TestInflateMatchesFlate: the inflater decodes what compress/flate writes
// at the levels that write no fixed-Huffman block (stored and dynamic
// blocks, streams past the 64 KB a block holds) byte for byte, and refuses
// a stream cut short.
func TestInflateMatchesFlate(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	inputs := [][]byte{nil, []byte("a"), []byte("a short text of a few words")}
	for _, n := range []int{100, 5000, 70000, 200000} {
		text, noise := make([]byte, 0, n), make([]byte, n)
		for len(text) < n {
			text = append(text, textValue(rng)...)
		}
		rng.Read(noise)
		inputs = append(inputs, text[:n], noise)
	}
	var f inflater
	for _, level := range []int{flate.NoCompression, flate.BestSpeed, flate.HuffmanOnly} {
		for _, in := range inputs {
			var buf bytes.Buffer
			zw, _ := flate.NewWriter(&buf, level)
			zw.Write(in)
			zw.Close()
			got, err := f.inflate([]byte("prefix"), buf.Bytes())
			if err != nil || !bytes.Equal(got[6:], in) || string(got[:6]) != "prefix" {
				t.Fatalf("level %d, %d bytes: inflate = %d bytes, %v", level, len(in), len(got)-6, err)
			}
			if len(in) > 0 {
				if _, err := f.inflate(nil, buf.Bytes()[:buf.Len()-2]); err == nil {
					t.Fatalf("level %d, %d bytes: a cut stream decoded", level, len(in))
				}
			}
		}
	}
}

// FuzzTextColumn appends the strings of its input (split at each 0 byte,
// repeated across more than two blocks, every fifth row unset) to a text
// attribute and checks they read back and that contains agrees with a
// strings.ToLower scan.
func FuzzTextColumn(f *testing.F) {
	f.Add([]byte("Left-handed\x00ZÜRICH open\x00\x00stra\xffße"), "left")
	f.Add([]byte("a"), "")
	f.Fuzz(func(t *testing.T, data []byte, needle string) {
		s := NewSchema("fuzz")
		if _, err := s.AddClass("Doc", map[string]AttrType{"text": AttrText}); err != nil {
			t.Fatal(err)
		}
		w, err := New(s)
		if err != nil {
			t.Fatal(err)
		}
		vals := strings.Split(string(data), "\x00")
		want := map[int64]string{}
		for i := 0; i < 2*textBlock+len(vals); i++ {
			var attrs map[string]any
			if i%5 != 3 {
				attrs = map[string]any{"text": vals[i%len(vals)]}
			}
			o, err := w.NewObject("Doc", attrs)
			if err != nil {
				t.Fatal(err)
			}
			if attrs != nil {
				want[o.ID] = vals[i%len(vals)]
			}
		}
		checkText(t, w, "Doc", "text", want, []string{needle, vals[0]})
	})
}
