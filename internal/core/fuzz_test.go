package core

import (
	"bytes"
	"testing"
)

// FuzzMetaSegfileOpen: whatever bytes reach the meta-index opener — a
// damaged container, or a container sound down to its checksums around a
// damaged table stream — opening, hydrating and the reads the engine build
// and the scene path make return errors, never panic. Each input is tried
// as a segfile and as a table stream; a stream that decodes is sealed into
// a one-segment segfile whose manifest matches it, so that mutations of a
// stream reach the segment decoder instead of stopping at a checksum.
func FuzzMetaSegfileOpen(f *testing.F) {
	_, parts, metas := buildSegMeta(f, []int{2, 1})
	valid := coreSegfileBytes(f, parts, metas, 2)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(misshapenSegfile(f, reshapeVideos(func(c []column[Video]) []column[Video] { return c[:2] })))
	stream := encodeTables(nil, parts[0], tables[:])
	f.Add(stream)
	f.Add(stream[:len(stream)/2])                                    // mid-table truncation
	f.Add(stream[:len(streamMagic)+1])                               // header only
	f.Add([]byte(nil))                                               // empty stream
	f.Add([]byte(streamMagic + "trash"))                             // good magic, garbage body
	f.Add([]byte("XXXX"))                                            // bad magic
	f.Add(append([]byte(streamMagic), 0xff, 0xff, 0xff, 0xff, 0x0f)) // huge table count
	f.Add(serialized(f, codecIndex(9)))                              // every column type, an empty table
	f.Fuzz(func(t *testing.T, data []byte) {
		readAll(data)
		m, err := DeserializeMetaIndex(data)
		if err != nil {
			if m != nil {
				t.Fatal("DeserializeMetaIndex returned both an index and an error")
			}
			return
		}
		var buf bytes.Buffer
		if err := WriteSegfile(&buf, []*Part{m.Freeze()}, []SegmentMeta{{ID: 1}}, 1); err != nil {
			t.Fatal(err)
		}
		readAll(buf.Bytes())
	})
}

// readAll opens data as a meta-index segfile, hydrates every partition and
// runs each read the engine build and the scene path make, ignoring errors.
func readAll(data []byte) {
	lib, err := openBytes(data)
	if err != nil {
		return
	}
	for _, kind := range []string{"net-play", "rally", "service"} {
		_, _ = lib.Scenes(kind)
	}
	parts, _ := lib.Parts()
	for _, p := range parts {
		for _, v := range p.videos {
			_, _ = lib.SegmentsOf(v.ID)
		}
	}
}
