package core

import (
	"bytes"
	"testing"

	"repro/internal/store"
)

// FuzzMetaSegfileOpen: whatever bytes reach the meta-index opener — a
// damaged container, or a container sound down to its checksums around a
// damaged column-store segment — opening, hydrating and the reads the engine
// build and the scene path make return errors, never panic. Each input is
// tried as a segfile and, when it decodes as a column-store stream, sealed
// into a one-segment segfile whose manifest matches it, so the mutations
// reach the segment decoder's schema check instead of stopping at a
// checksum.
func FuzzMetaSegfileOpen(f *testing.F) {
	_, parts, metas := buildSegMeta(f, []int{2, 1})
	valid := coreSegfileBytes(f, parts, metas, 2)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(misshapenSegfile(f, func(c []store.Column) []store.Column { return c[:2] }))
	var seg bytes.Buffer
	if err := parts[0].Serialize(&seg); err != nil {
		f.Fatal(err)
	}
	f.Add(seg.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		readAll(data)
		if db, err := store.Deserialize(bytes.NewReader(data)); err == nil {
			readAll(sealed(t, db))
		}
	})
}

// readAll opens data as a meta-index segfile, hydrates every partition and
// runs each read the engine build and the scene path make, ignoring errors.
func readAll(data []byte) {
	lib, err := OpenSegfileBytes(data)
	if err != nil {
		return
	}
	_, _ = lib.Parts()
	for _, kind := range []string{"net-play", "rally", "service"} {
		_, _ = lib.Scenes(kind)
	}
	vids, _ := lib.Videos()
	for _, v := range vids {
		_, _ = lib.EventsOf(v.ID)
		_, _ = lib.SegmentsOf(v.ID)
	}
}

// sealed wraps a decoded column-store database as a checksum-valid
// one-segment segfile whose manifest carries its row counts; nil when a
// table the meta-index needs is missing or lacks an indexed column.
func sealed(t *testing.T, db *store.DB) []byte {
	m := &MetaIndex{db: db}
	if err := m.bind(func(s store.Schema) (*store.Table, error) { return db.Table(s.Name) }); err != nil {
		return nil
	}
	var buf bytes.Buffer
	if err := WriteSegfile(&buf, []*MetaIndex{m}, []SegmentMeta{{ID: 1}}, 1); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
