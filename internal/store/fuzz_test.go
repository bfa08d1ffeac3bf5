package store

import (
	"bytes"
	"strings"
	"testing"
)

// fuzzSampleDB builds a DB exercising every column type, empty tables and
// multi-table layouts — the realistic seed for the deserializer fuzzer.
func fuzzSampleDB(t testing.TB) *DB {
	t.Helper()
	db := NewDB()
	events, err := db.Create(Schema{Name: "events", Columns: []Column{
		{Name: "id", Type: TInt},
		{Name: "confidence", Type: TFloat},
		{Name: "kind", Type: TString},
		{Name: "gradual", Type: TBool},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 17; i++ {
		if err := events.Append(Int(int64(i)), Float(0.5+float64(i)/100),
			Str(strings.Repeat("net-play ", i%3+1)), Bool(i%2 == 0)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Create(Schema{Name: "empty", Columns: []Column{
		{Name: "only", Type: TString},
	}}); err != nil {
		t.Fatal(err)
	}
	return db
}

func serializeDB(t testing.TB, db *DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDeserialize: corrupt snapshot bytes must surface as errors, never as
// panics or process-killing allocations. The corpus is seeded with a real
// serialized DB plus truncations and header-level mutations of it.
func FuzzDeserialize(f *testing.F) {
	real := serializeDB(f, fuzzSampleDB(f))
	f.Add(real)
	f.Add(real[:len(real)/2])                                          // mid-table truncation
	f.Add(real[:len(persistMagic)])                                    // header only
	f.Add([]byte(nil))                                                 // empty stream
	f.Add([]byte("CSDBtrash"))                                         // good magic, garbage body
	f.Add([]byte("XXXX"))                                              // bad magic
	huge := append([]byte(persistMagic), 0xff, 0xff, 0xff, 0xff, 0x0f) // huge table count
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := Deserialize(bytes.NewReader(data))
		if err != nil {
			if db != nil {
				t.Fatal("Deserialize returned both a DB and an error")
			}
			return
		}
		// Whatever parsed must round-trip without crashing.
		var buf bytes.Buffer
		if err := db.Serialize(&buf); err != nil {
			t.Fatalf("re-serialize of accepted input failed: %v", err)
		}
	})
}

// TestDeserializeRoundTrip pins the fuzz seed itself: the sample DB must
// survive a serialize/deserialize cycle byte-identically.
func TestDeserializeRoundTrip(t *testing.T) {
	db := fuzzSampleDB(t)
	data := serializeDB(t, db)
	back, err := Deserialize(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	again := serializeDB(t, back)
	if !bytes.Equal(data, again) {
		t.Fatal("round-trip changed the serialized bytes")
	}
	ev, err := back.Table("events")
	if err != nil {
		t.Fatal(err)
	}
	if ev.Len() != 17 {
		t.Fatalf("events rows = %d", ev.Len())
	}
	v, err := ev.Get(3, 2)
	if err != nil || v.S == "" {
		t.Fatalf("kind[3] = %v, %v", v, err)
	}
}

// TestDeserializeHostileCounts: headers claiming astronomical row counts on
// tiny inputs must error quickly instead of preallocating gigabytes.
func TestDeserializeHostileCounts(t *testing.T) {
	// magic | 1 table | name "t" | 1 col (int "c") | 2^32 rows | no data
	var buf bytes.Buffer
	buf.WriteString(persistMagic)
	buf.WriteByte(1)                                // table count
	buf.WriteByte(1)                                // name len
	buf.WriteByte('t')                              // name
	buf.WriteByte(1)                                // col count
	buf.WriteByte(byte(TInt))                       // col type
	buf.WriteByte(1)                                // col name len
	buf.WriteByte('c')                              // col name
	buf.Write([]byte{0x80, 0x80, 0x80, 0x80, 0x10}) // uvarint 2^32
	if _, err := Deserialize(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("2^32-row claim with no data accepted")
	}
	// Same but a huge claimed string length in a string column.
	buf.Reset()
	buf.WriteString(persistMagic)
	buf.WriteByte(1)
	buf.WriteByte(1)
	buf.WriteByte('t')
	buf.WriteByte(1)
	buf.WriteByte(byte(TString))
	buf.WriteByte(1)
	buf.WriteByte('c')
	buf.WriteByte(1)                          // one row
	buf.Write([]byte{0x80, 0x80, 0x80, 0x08}) // string length 2^24 exactly...
	if _, err := Deserialize(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("huge string claim with no data accepted")
	}
}

// TestDeserializeDuplicateTable: two tables with the same name in one
// stream are rejected rather than silently collapsed.
func TestDeserializeDuplicateTable(t *testing.T) {
	db := NewDB()
	tb, err := db.Create(Schema{Name: "dup", Columns: []Column{{Name: "c", Type: TInt}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Append(Int(7)); err != nil {
		t.Fatal(err)
	}
	var one bytes.Buffer
	if err := db.Serialize(&one); err != nil {
		t.Fatal(err)
	}
	// Splice the single table twice into a two-table stream.
	body := one.Bytes()[len(persistMagic)+1:]
	var two bytes.Buffer
	two.WriteString(persistMagic)
	two.WriteByte(2)
	two.Write(body)
	two.Write(body)
	if _, err := Deserialize(bytes.NewReader(two.Bytes())); err == nil {
		t.Fatal("duplicate table accepted")
	}
}
