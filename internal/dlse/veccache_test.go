package dlse

// The vector lane's segfile cache across its format change: format 1 stored
// float32 embeddings and a copy of the page names per segment; format 2
// stores the embedder's integer counts at their narrowest width, one scale
// per page, and no names (the text cache's serve).

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/segfile"
	"repro/internal/vec"
)

// TestVecSegfileCacheOldVersionRebuild: testdata/vec-v1.segf is the format-1
// vec cache the last format-1 build wrote for cacheSite(3) at two text
// segments. Beside a current text cache it is refused by its version, and
// the boot rebuilds it, replaces the file with the cache a fresh cold build
// writes, and answers as a cache-free build does.
func TestVecSegfileCacheOldVersionRebuild(t *testing.T) {
	site := cacheSite(t, 3)
	plain, err := NewSegmented(site, nil, Options{TextSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(filepath.Join("testdata", "vec-v1.segf"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := Options{TextSegments: 2, TextSegfile: filepath.Join(dir, "text.segf"), VecSegfile: filepath.Join(dir, "vec.segf")}
	if _, err := NewSegmented(site, nil, Options{TextSegments: 2, TextSegfile: opts.TextSegfile}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(opts.VecSegfile, old, 0o644); err != nil {
		t.Fatal(err)
	}
	text, _, err := ir.OpenSegmentsFile(opts.TextSegfile, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := vec.OpenFile(opts.VecSegfile, vec.DefaultEmbedder(), 0, text.NameTables()); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("version-1 cache: open err = %v, want a version refusal", err)
	}
	booted, err := NewSegmented(site, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	freshDir := t.TempDir()
	fresh := Options{TextSegments: 2, TextSegfile: filepath.Join(freshDir, "text.segf"), VecSegfile: filepath.Join(freshDir, "vec.segf")}
	if _, err := NewSegmented(site, nil, fresh); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(opts.VecSegfile)
	want, _ := os.ReadFile(fresh.VecSegfile)
	if !bytes.Equal(got, want) {
		t.Fatalf("the version-1 cache was not replaced by a fresh one (%d bytes, fresh %d)", len(got), len(want))
	}
	ctx := context.Background()
	for _, q := range []Query{
		{Vector: "australian open final"},
		{Vector: "left-handed champion"},
		{Hybrid: "champion"},
	} {
		br, berr := booted.Search(ctx, q)
		pr, perr := plain.Search(ctx, q)
		if berr != nil || perr != nil {
			t.Fatalf("%+v: err %v / %v", q, berr, perr)
		}
		if len(br.Items) == 0 || !reflect.DeepEqual(br.Items, pr.Items) {
			t.Fatalf("%+v: answers diverge\nbooted: %v\nplain:  %v", q, br.Items, pr.Items)
		}
	}
}

// vecFile is a vec cache decoded straight from its blocks, independently of
// package vec's reader: per segment, its page names (format 1 only) and the
// float32 bits of its coordinates, row-major.
type vecFile struct {
	dim   int
	names [][]string
	bits  [][]uint32
}

// decodeVecFile decodes the vec cache at path, of layout version 1 (f32
// embeddings and a name table per segment) or 2 (int8, int16 or int32
// counts, each segment's at the narrowest width that holds its largest
// |count|, and f32 scales; coordinate = float32(count) * scale).
func decodeVecFile(t *testing.T, path string) vecFile {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := segfile.NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	var head struct {
		Version, Dim, Segments, _ uint32
		Signature                 uint64
	}
	if err := r.Record("vec/meta", &head); err != nil {
		t.Fatal(err)
	}
	block := func(name string) []byte {
		b, ok := r.Block(name)
		if !ok {
			t.Fatalf("%s: no block %q", path, name)
		}
		return b
	}
	f := vecFile{dim: int(head.Dim)}
	for i := 0; i < int(head.Segments); i++ {
		pre := fmt.Sprintf("vec/%d/", i)
		var docs uint32
		var bits []uint32
		switch head.Version {
		case 1:
			if err := r.Record(pre+"meta", &docs); err != nil {
				t.Fatal(err)
			}
			names, err := r.Table(pre+"names", pre+"nameoff", int(docs))
			if err != nil {
				t.Fatal(err)
			}
			var ns []string
			for d := 0; d < int(docs); d++ {
				ns = append(ns, names.At(d))
			}
			f.names = append(f.names, ns)
			vecs := block(pre + "vecs")
			if len(vecs) != 4*int(docs)*f.dim {
				t.Fatalf("%s segment %d: %d embedding bytes for %d docs", path, i, len(vecs), docs)
			}
			for j := 0; j < len(vecs); j += 4 {
				bits = append(bits, binary.LittleEndian.Uint32(vecs[j:]))
			}
		case 2:
			var width uint8
			if err := r.Record(pre+"meta", &docs, &width); err != nil {
				t.Fatal(err)
			}
			codes, scale := block(pre+"codes"), block(pre+"scale")
			n := int(docs) * f.dim
			if len(codes) != n*int(width) || len(scale) != 4*int(docs) {
				t.Fatalf("%s segment %d: %d code bytes of width %d and %d scale bytes for %d docs", path, i, len(codes), width, len(scale), docs)
			}
			var top int64
			for j := 0; j < n; j++ {
				var c int32
				switch width {
				case 1:
					c = int32(int8(codes[j]))
				case 2:
					c = int32(int16(binary.LittleEndian.Uint16(codes[2*j:])))
				case 4:
					c = int32(binary.LittleEndian.Uint32(codes[4*j:]))
				default:
					t.Fatalf("%s segment %d: code width %d", path, i, width)
				}
				top = max(top, int64(c), -int64(c))
				s := math.Float32frombits(binary.LittleEndian.Uint32(scale[4*(j/f.dim):]))
				bits = append(bits, math.Float32bits(float32(c)*s))
			}
			narrowest := uint8(4)
			if top <= math.MaxInt8 {
				narrowest = 1
			} else if top <= math.MaxInt16 {
				narrowest = 2
			}
			if n > 0 && width != narrowest {
				t.Fatalf("%s segment %d: codes stored at width %d, its largest |count| %d fits %d", path, i, width, top, narrowest)
			}
		default:
			t.Fatalf("%s: layout version %d", path, head.Version)
		}
		f.bits = append(f.bits, bits)
	}
	return f
}

// TestVecFormat2EqualsFormat1 is the evidence behind re-recording the vec
// cache's byte golden for format 2: the committed format-1 cache of
// cacheSite(3) at two segments (written by the last format-1 build) and a
// format-2 build of the same site hold, per segment, the same coordinates
// bit for bit; format 2's pages are named by the text cache beside it,
// exactly as format 1 named them; and every format-2 segment stores its
// counts at the narrowest width that holds them.
func TestVecFormat2EqualsFormat1(t *testing.T) {
	dir := t.TempDir()
	opts := Options{TextSegments: 2, TextSegfile: filepath.Join(dir, "text.segf"), VecSegfile: filepath.Join(dir, "vec.segf")}
	if _, err := NewSegmented(cacheSite(t, 3), nil, opts); err != nil {
		t.Fatal(err)
	}
	v1 := decodeVecFile(t, filepath.Join("testdata", "vec-v1.segf"))
	v2 := decodeVecFile(t, opts.VecSegfile)
	text := decodeTextFile(t, opts.TextSegfile)
	if len(v1.bits) != 2 || len(v1.bits[0]) == 0 || v1.dim != v2.dim {
		t.Fatalf("format-1 file holds %d segments of dim %d, format 2 dim %d", len(v1.bits), v1.dim, v2.dim)
	}
	if len(v2.bits) != len(v1.bits) || len(text.segs) != len(v1.bits) {
		t.Fatalf("format 1 holds %d segments, format 2 %d, the text cache %d", len(v1.bits), len(v2.bits), len(text.segs))
	}
	for i := range v1.bits {
		if !reflect.DeepEqual(v1.names[i], text.segs[i].names) {
			t.Fatalf("segment %d: format-1 names differ from the text cache's", i)
		}
		if len(v1.bits[i]) != len(v2.bits[i]) {
			t.Fatalf("segment %d: %d coordinates in format 1, %d in format 2", i, len(v1.bits[i]), len(v2.bits[i]))
		}
		for j := range v1.bits[i] {
			if v1.bits[i][j] != v2.bits[i][j] {
				t.Fatalf("segment %d doc %d coordinate %d: format 1 %#x, format 2 %#x", i, j/v1.dim, j%v1.dim, v1.bits[i][j], v2.bits[i][j])
			}
		}
	}
}

// vecCacheBytes is the size of the vec cache a cold build writes for
// laneCacheSite at four text segments, measured when the cache went to
// counts at their narrowest width (vec format 2; format 1 wrote 338,651
// bytes).
const vecCacheBytes = 81579

// TestVecCacheSize holds the vec cache of laneCacheSite at four segments to
// vecCacheBytes plus 2 %, and logs what it costs per page.
func TestVecCacheSize(t *testing.T) {
	dir := t.TempDir()
	opts := Options{TextSegments: 4, TextSegfile: filepath.Join(dir, "text.segf"), VecSegfile: filepath.Join(dir, "vec.segf")}
	e, err := NewSegmented(laneCacheSite(t), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(opts.VecSegfile)
	if err != nil {
		t.Fatal(err)
	}
	size, docs := fi.Size(), e.VecIndex().Docs()
	t.Logf("vec cache: %d bytes for %d pages, %.2f bytes per page", size, docs, float64(size)/float64(docs))
	if bound := int64(vecCacheBytes + vecCacheBytes/50); size > bound {
		t.Errorf("vec cache is %d bytes, want at most %d (%d + 2 %%)", size, bound, vecCacheBytes)
	}
}
