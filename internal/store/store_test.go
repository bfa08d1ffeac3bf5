package store

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

func playerSchema() Schema {
	return Schema{
		Name: "players",
		Columns: []Column{
			{Name: "id", Type: TInt},
			{Name: "name", Type: TString},
			{Name: "rank", Type: TFloat},
			{Name: "lefty", Type: TBool},
		},
	}
}

func fillPlayers(t *testing.T, tbl *Table) {
	t.Helper()
	rows := []struct {
		id    int64
		name  string
		rank  float64
		lefty bool
	}{
		{1, "capriati", 1.0, false},
		{2, "hingis", 2.0, false},
		{3, "seles", 3.5, true},
		{4, "clijsters", 4.0, false},
		{5, "navratilova", 5.0, true},
	}
	for _, r := range rows {
		if err := tbl.Append(Int(r.id), Str(r.name), Float(r.rank), Bool(r.lefty)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTableAppendGet(t *testing.T) {
	tbl, err := NewTable(playerSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillPlayers(t, tbl)
	if tbl.Len() != 5 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	v, err := tbl.Get(2, 1)
	if err != nil || v.S != "seles" {
		t.Fatalf("Get(2, name) = %v, %v", v, err)
	}
	row, err := tbl.Row(4)
	if err != nil {
		t.Fatal(err)
	}
	if row[1].S != "navratilova" || row[3].B != true {
		t.Fatalf("Row(4) = %v", row)
	}
}

func TestTableTypeAndArityErrors(t *testing.T) {
	tbl, _ := NewTable(playerSchema())
	if err := tbl.Append(Int(1)); !errors.Is(err, ErrArity) {
		t.Fatalf("arity error = %v", err)
	}
	if err := tbl.Append(Str("x"), Str("y"), Float(1), Bool(false)); !errors.Is(err, ErrTypeClash) {
		t.Fatalf("type error = %v", err)
	}
	// Atomicity: failed append must not leave partial column data.
	if tbl.Len() != 0 {
		t.Fatal("failed append changed length")
	}
	if err := tbl.Append(Int(1), Str("a"), Float(1), Bool(true)); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Fatal("append after failures broken")
	}
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewTable(Schema{}); err == nil {
		t.Fatal("empty schema accepted")
	}
	if _, err := NewTable(Schema{Name: "x"}); err == nil {
		t.Fatal("no columns accepted")
	}
	if _, err := NewTable(Schema{Name: "x", Columns: []Column{{Name: "a"}, {Name: "a"}}}); err == nil {
		t.Fatal("duplicate columns accepted")
	}
}

// TestSelectFullScan: Lookup on an unindexed column scans, one column type
// at a time, and an absent value selects nothing.
func TestSelectFullScan(t *testing.T) {
	tbl, _ := NewTable(playerSchema())
	fillPlayers(t, tbl)
	for _, c := range []struct {
		col  string
		val  Value
		want []int
	}{
		{"lefty", Bool(true), []int{2, 4}},
		{"name", Str("hingis"), []int{1}},
		{"rank", Float(4.0), []int{3}},
		{"id", Int(5), []int{4}},
		{"id", Int(7), nil},
	} {
		rows, err := tbl.Lookup(c.col, c.val)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rows, c.want) {
			t.Fatalf("Lookup(%s = %v) = %v, want %v", c.col, c.val, rows, c.want)
		}
	}
}

func TestSelectErrors(t *testing.T) {
	tbl, _ := NewTable(playerSchema())
	fillPlayers(t, tbl)
	if _, err := tbl.Lookup("nope", Int(1)); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("missing column error = %v", err)
	}
	if _, err := tbl.Lookup("id", Str("1")); !errors.Is(err, ErrTypeClash) {
		t.Fatalf("lookup type error = %v", err)
	}
}

func TestValueOrderingAndEquality(t *testing.T) {
	if !Int(1).Equal(Int(1)) || Int(1).Equal(Int(2)) {
		t.Fatal("int equality broken")
	}
	if !Str("a").Equal(Str("a")) || Str("a").Equal(Str("b")) {
		t.Fatal("string equality broken")
	}
	if !Bool(true).Equal(Bool(true)) || Bool(false).Equal(Bool(true)) {
		t.Fatal("bool equality broken")
	}
	if Int(1).Equal(Float(1)) {
		t.Fatal("cross-type equality")
	}
}

func TestDBCreateAndLookup(t *testing.T) {
	db := NewDB()
	if _, err := db.Create(playerSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Create(playerSchema()); !errors.Is(err, ErrDupTable) {
		t.Fatalf("dup create = %v", err)
	}
	if _, err := db.Table("players"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Table("nope"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("missing table = %v", err)
	}
	if !reflect.DeepEqual(db.Names(), []string{"players"}) {
		t.Fatalf("names = %v", db.Names())
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	db := NewDB()
	tbl, _ := db.Create(playerSchema())
	fillPlayers(t, tbl)
	other, _ := db.Create(Schema{Name: "scores", Columns: []Column{
		{Name: "pid", Type: TInt}, {Name: "pts", Type: TFloat},
	}})
	for i := 0; i < 100; i++ {
		_ = other.Append(Int(int64(i%5+1)), Float(float64(i)*0.25))
	}

	var buf bytes.Buffer
	if err := db.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Deserialize(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Names(), []string{"players", "scores"}) {
		t.Fatalf("names = %v", got.Names())
	}
	gp, _ := got.Table("players")
	if gp.Len() != 5 {
		t.Fatalf("players len = %d", gp.Len())
	}
	for i := 0; i < 5; i++ {
		a, _ := tbl.Row(i)
		b, _ := gp.Row(i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("row %d: %v != %v", i, a, b)
		}
	}
	gs, _ := got.Table("scores")
	v, _ := gs.Get(99, 1)
	if v.F != 99*0.25 {
		t.Fatalf("float round trip = %v", v.F)
	}
	// Lookups still work after load.
	rows, _ := gp.Lookup("name", Str("seles"))
	if !reflect.DeepEqual(rows, []int{2}) {
		t.Fatalf("post-load lookup = %v", rows)
	}
}

func TestPersistenceRejectsGarbage(t *testing.T) {
	if _, err := Deserialize(bytes.NewReader([]byte("XXXX junk"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Deserialize(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
}

// Property: persistence round-trips random typed rows bit-exactly.
func TestPersistenceProperty(t *testing.T) {
	f := func(ints []int64, flts []float64, strs []string, bls []bool) bool {
		n := len(ints)
		for _, l := range []int{len(flts), len(strs), len(bls)} {
			if l < n {
				n = l
			}
		}
		db := NewDB()
		tbl, _ := db.Create(Schema{Name: "t", Columns: []Column{
			{Name: "i", Type: TInt}, {Name: "f", Type: TFloat},
			{Name: "s", Type: TString}, {Name: "b", Type: TBool},
		}})
		for k := 0; k < n; k++ {
			if err := tbl.Append(Int(ints[k]), Float(flts[k]), Str(strs[k]), Bool(bls[k])); err != nil {
				return false
			}
		}
		var buf bytes.Buffer
		if err := db.Serialize(&buf); err != nil {
			return false
		}
		got, err := Deserialize(&buf)
		if err != nil {
			return false
		}
		gt, err := got.Table("t")
		if err != nil || gt.Len() != n {
			return false
		}
		for k := 0; k < n; k++ {
			a, _ := tbl.Row(k)
			b, _ := gt.Row(k)
			for c := range a {
				// NaN != NaN under Equal; compare bit patterns via String.
				if fmt.Sprint(a[c]) != fmt.Sprint(b[c]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGetErrors(t *testing.T) {
	tbl, _ := NewTable(playerSchema())
	fillPlayers(t, tbl)
	if _, err := tbl.Get(99, 0); !errors.Is(err, ErrRowRange) {
		t.Fatalf("row range = %v", err)
	}
	if _, err := tbl.Get(0, 99); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("col range = %v", err)
	}
	if _, err := tbl.Row(-1); !errors.Is(err, ErrRowRange) {
		t.Fatalf("row -1 = %v", err)
	}
}

func TestTypeString(t *testing.T) {
	for typ, want := range map[Type]string{TInt: "int", TFloat: "float", TString: "string", TBool: "bool"} {
		if typ.String() != want {
			t.Errorf("type %d String = %s, want %s", typ, typ.String(), want)
		}
	}
}
