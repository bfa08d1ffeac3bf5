package store

import (
	"bytes"
	"testing"
)

func TestSelectOnEmptyTable(t *testing.T) {
	tbl, _ := NewTable(playerSchema())
	rows, err := tbl.Lookup("name", Str("x"))
	if err != nil || len(rows) != 0 {
		t.Fatalf("rows = %v, err = %v", rows, err)
	}
}

func TestPersistenceEmptyTable(t *testing.T) {
	db := NewDB()
	if _, err := db.Create(playerSchema()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Deserialize(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := got.Table("players")
	if tbl.Len() != 0 {
		t.Fatalf("len = %d", tbl.Len())
	}
	// And it is usable.
	if err := tbl.Append(Int(1), Str("a"), Float(1), Bool(false)); err != nil {
		t.Fatal(err)
	}
}

func TestValueStringRendering(t *testing.T) {
	cases := map[string]Value{
		"42":    Int(42),
		"1.5":   Float(1.5),
		"hello": Str("hello"),
		"true":  Bool(true),
	}
	for want, v := range cases {
		if v.String() != want {
			t.Errorf("%v String = %q, want %q", v, v.String(), want)
		}
	}
}
