// Package store implements an embedded, column-oriented record store: the
// meta-index backend of the reproduction. The original system kept its
// meta-data in Monet, a main-memory DBMS built around vertical
// fragmentation (one binary association table per attribute); this package
// reproduces that flavour with typed column vectors, one keyed read — an
// equality lookup, answered by a scan — and a compact binary persistence
// format: what the Feature Detector Engine writes and the meta-index reads.
package store

import (
	"errors"
	"fmt"
	"sort"
)

// Type enumerates column types.
type Type uint8

// Supported column types.
const (
	TInt Type = iota
	TFloat
	TString
	TBool
)

// String names the type.
func (t Type) String() string {
	switch t {
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TString:
		return "string"
	case TBool:
		return "bool"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Value is a dynamically typed cell value.
type Value struct {
	T Type
	I int64
	F float64
	S string
	B bool
}

// Int, Float, Str and Bool construct Values.
func Int(v int64) Value     { return Value{T: TInt, I: v} }
func Float(v float64) Value { return Value{T: TFloat, F: v} }
func Str(v string) Value    { return Value{T: TString, S: v} }
func Bool(v bool) Value     { return Value{T: TBool, B: v} }

// String renders the value.
func (v Value) String() string {
	switch v.T {
	case TInt:
		return fmt.Sprintf("%d", v.I)
	case TFloat:
		return fmt.Sprintf("%g", v.F)
	case TString:
		return v.S
	case TBool:
		return fmt.Sprintf("%t", v.B)
	}
	return "?"
}

// Equal compares two values of the same type; differing types are unequal.
func (v Value) Equal(o Value) bool {
	if v.T != o.T {
		return false
	}
	switch v.T {
	case TInt:
		return v.I == o.I
	case TFloat:
		return v.F == o.F
	case TString:
		return v.S == o.S
	case TBool:
		return v.B == o.B
	}
	return false
}

// Column declares one attribute of a table.
type Column struct {
	Name string
	Type Type
}

// Schema declares a table.
type Schema struct {
	Name    string
	Columns []Column
}

// Col returns the index of the named column, or -1.
func (s Schema) Col(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Errors returned by the package.
var (
	ErrNoColumn  = errors.New("store: no such column")
	ErrNoTable   = errors.New("store: no such table")
	ErrTypeClash = errors.New("store: value type does not match column type")
	ErrArity     = errors.New("store: row arity does not match schema")
	ErrRowRange  = errors.New("store: row index out of range")
	ErrDupTable  = errors.New("store: table already exists")
)

// colData is one vertically fragmented attribute vector.
type colData struct {
	typ  Type
	ints []int64
	flts []float64
	strs []string
	bls  []bool
}

func (c *colData) append(v Value) error {
	if v.T != c.typ {
		return fmt.Errorf("%w: got %s want %s", ErrTypeClash, v.T, c.typ)
	}
	switch c.typ {
	case TInt:
		c.ints = append(c.ints, v.I)
	case TFloat:
		c.flts = append(c.flts, v.F)
	case TString:
		c.strs = append(c.strs, v.S)
	case TBool:
		c.bls = append(c.bls, v.B)
	}
	return nil
}

func (c *colData) get(i int) Value {
	switch c.typ {
	case TInt:
		return Int(c.ints[i])
	case TFloat:
		return Float(c.flts[i])
	case TString:
		return Str(c.strs[i])
	default:
		return Bool(c.bls[i])
	}
}

// Table is a columnar table.
//
// Concurrency: a Table supports any number of concurrent readers (Get, Row,
// Lookup, Len) provided no writer (Append) runs at the same time. Readers
// mutate nothing, so they take no lock.
type Table struct {
	schema Schema
	cols   []colData
	n      int
}

// NewTable allocates an empty table for the schema.
func NewTable(s Schema) (*Table, error) {
	if s.Name == "" {
		return nil, errors.New("store: table needs a name")
	}
	if len(s.Columns) == 0 {
		return nil, errors.New("store: table needs at least one column")
	}
	seen := map[string]bool{}
	for _, c := range s.Columns {
		if c.Name == "" {
			return nil, errors.New("store: column needs a name")
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("store: duplicate column %q", c.Name)
		}
		seen[c.Name] = true
	}
	t := &Table{schema: s, cols: make([]colData, len(s.Columns))}
	for i, c := range s.Columns {
		t.cols[i].typ = c.Type
	}
	return t, nil
}

// Schema returns the table's schema.
func (t *Table) Schema() Schema { return t.schema }

// Len returns the number of rows.
func (t *Table) Len() int { return t.n }

// Append adds one row; values must match the schema's arity and types.
func (t *Table) Append(row ...Value) error {
	if len(row) != len(t.cols) {
		return fmt.Errorf("%w: got %d want %d", ErrArity, len(row), len(t.cols))
	}
	for i, v := range row {
		if v.T != t.cols[i].typ {
			return fmt.Errorf("%w: column %q got %s want %s",
				ErrTypeClash, t.schema.Columns[i].Name, v.T, t.cols[i].typ)
		}
	}
	for i, v := range row {
		if err := t.cols[i].append(v); err != nil {
			return err
		}
	}
	t.n++
	return nil
}

// Get returns the value at (row, col).
func (t *Table) Get(row, col int) (Value, error) {
	if row < 0 || row >= t.n {
		return Value{}, fmt.Errorf("%w: %d of %d", ErrRowRange, row, t.n)
	}
	if col < 0 || col >= len(t.cols) {
		return Value{}, fmt.Errorf("%w: %d", ErrNoColumn, col)
	}
	return t.cols[col].get(row), nil
}

// Row materializes a full row.
func (t *Table) Row(i int) ([]Value, error) {
	if i < 0 || i >= t.n {
		return nil, fmt.Errorf("%w: %d of %d", ErrRowRange, i, t.n)
	}
	out := make([]Value, len(t.cols))
	for c := range t.cols {
		out[c] = t.cols[c].get(i)
	}
	return out, nil
}

// Lookup returns the rows whose value in column col equals v, in ascending
// row order: a scan. The slice belongs to the caller.
func (t *Table) Lookup(col string, v Value) ([]int, error) {
	ci := t.schema.Col(col)
	if ci < 0 {
		return nil, fmt.Errorf("%w: %q", ErrNoColumn, col)
	}
	if v.T != t.cols[ci].typ {
		return nil, fmt.Errorf("%w: lookup on %q got %s want %s",
			ErrTypeClash, col, v.T, t.cols[ci].typ)
	}
	var out []int
	for row := 0; row < t.n; row++ {
		if t.cols[ci].get(row).Equal(v) {
			out = append(out, row)
		}
	}
	return out, nil
}

// DB is a named collection of tables.
type DB struct {
	tables map[string]*Table
}

// NewDB creates an empty database.
func NewDB() *DB { return &DB{tables: map[string]*Table{}} }

// Create adds a new table for the schema.
func (db *DB) Create(s Schema) (*Table, error) {
	if _, ok := db.tables[s.Name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrDupTable, s.Name)
	}
	t, err := NewTable(s)
	if err != nil {
		return nil, err
	}
	db.tables[s.Name] = t
	return t, nil
}

// Table returns the named table.
func (db *DB) Table(name string) (*Table, error) {
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	return t, nil
}

// Names returns the sorted table names.
func (db *DB) Names() []string {
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
