package webspace

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/segfile"
)

// Object is one instance in the materialized webspace, made by NewObject.
// Its attribute values are not held here but in its class's columns, at
// the object's row.
type Object struct {
	ID    int64
	Class string
	// Links maps role names to target object IDs; nil until the first link.
	Links map[string][]int64

	tab *table
	row int32
}

// StringAttr returns a string or text attribute, or "". A string
// attribute's value aliases its column; a text attribute's is a copy,
// decoded from its compressed block.
func (o *Object) StringAttr(name string) string {
	i, ok := o.tab.class.attrIndex(name)
	if !ok {
		return ""
	}
	c := &o.tab.cols[i]
	if !c.isString() || !c.has(o.row) {
		return ""
	}
	if c.typ == AttrString {
		return c.str.At(int(o.row))
	}
	var r textReader
	return strings.Clone(r.at(c, o.row))
}

// table holds the objects of one class as rows, in creation order: row r is
// object ids[r], and cols[i] holds attribute class.names[i] of every row.
type table struct {
	class *Class
	ids   []int64
	cols  []column
}

// column is one attribute of every row of a class, typed: a string
// attribute is a byte arena with u32 offsets (the shape of a segfile string
// table), an int, float or bool attribute a plain slice. A text attribute,
// which only contains scans read in full, keeps each full block of
// textBlock rows flate-compressed in blocks; str holds only its open block,
// whose bytes are rewritten once it is sealed. An unset row holds the zero
// value and a clear bit in set.
type column struct {
	typ    AttrType
	set    []uint64 // presence bitmap by row
	str    segfile.Table
	blocks [][]byte
	ints   []int64
	floats []float64
	bools  []bool
}

func (c *column) isString() bool { return c.typ == AttrString || c.typ == AttrText }

func (c *column) has(row int32) bool { return c.set[row>>6]&(1<<(row&63)) != 0 }

// push appends the next row's value: v, already checked against the
// column's type, or nil for an unset row.
func (c *column) push(row int32, v any) {
	if row&63 == 0 {
		c.set = append(c.set, 0)
	}
	if v != nil {
		c.set[row>>6] |= 1 << (row & 63)
	}
	switch c.typ {
	case AttrString:
		s, _ := v.(string)
		c.str.Append(s)
	case AttrText:
		s, _ := v.(string)
		c.str.Append(s)
		if c.str.Len() == textBlock {
			c.seal()
		}
	case AttrInt:
		i, _ := v.(int64)
		c.ints = append(c.ints, i)
	case AttrFloat:
		f, _ := v.(float64)
		c.floats = append(c.floats, f)
	case AttrBool:
		b, _ := v.(bool)
		c.bools = append(c.bools, b)
	}
}

// objChunk is how many objects share one allocation.
const objChunk = 128

// Webspace is a materialized object graph conforming to a schema. Object
// IDs are dense: the webspace hands out 1, 2, … in creation order, and
// object id is element (id-1)%objChunk of chunk (id-1)/objChunk. Chunks
// never move, so an *Object stays valid as the webspace grows.
type Webspace struct {
	schema *Schema
	chunks [][]Object
	n      int
	tables map[string]*table
}

// New creates an empty webspace over a validated schema.
func New(s *Schema) (*Webspace, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &Webspace{schema: s, tables: map[string]*table{}}, nil
}

// Schema returns the webspace's schema.
func (w *Webspace) Schema() *Schema { return w.schema }

// table returns the rows of class, made on the class's first object.
func (w *Webspace) table(class string) (*table, error) {
	if t := w.tables[class]; t != nil {
		return t, nil
	}
	c, ok := w.schema.Classes[class]
	if !ok {
		return nil, fmt.Errorf("webspace: unknown class %q", class)
	}
	t := &table{class: c, cols: make([]column, len(c.names))}
	for i, name := range c.names {
		t.cols[i].typ = c.Attrs[name]
	}
	w.tables[class] = t
	return t, nil
}

// reserve sizes class's columns for rows more objects whose string
// attributes hold strBytes[name] bytes in all, so that adding them copies
// no column as it grows. A text attribute's blocks are compressed as they
// fill, so only their count is known ahead.
func (w *Webspace) reserve(class string, rows int, strBytes map[string]int) error {
	t, err := w.table(class)
	if err != nil {
		return err
	}
	t.ids = slices.Grow(t.ids, rows)
	for i := range t.cols {
		c := &t.cols[i]
		c.set = slices.Grow(c.set, (len(t.ids)+rows+63)/64-len(c.set))
		switch c.typ {
		case AttrString:
			c.str.Data = slices.Grow(c.str.Data, strBytes[t.class.names[i]])
			c.str.Off = slices.Grow(c.str.Off, rows+1)
		case AttrText:
			c.blocks = slices.Grow(c.blocks, (len(t.ids)+rows)/textBlock-len(c.blocks))
		case AttrInt:
			c.ints = slices.Grow(c.ints, rows)
		case AttrFloat:
			c.floats = slices.Grow(c.floats, rows)
		case AttrBool:
			c.bools = slices.Grow(c.bools, rows)
		}
	}
	return nil
}

// NewObject materializes an instance of the class, validating attributes.
func (w *Webspace) NewObject(class string, attrs map[string]any) (*Object, error) {
	t, err := w.table(class)
	if err != nil {
		return nil, err
	}
	c := t.class
	for name, v := range attrs {
		i, ok := c.attrIndex(name)
		if !ok {
			return nil, fmt.Errorf("webspace: class %q has no attribute %q", class, name)
		}
		if at := c.Attrs[name]; !typeMatches(at, v) {
			return nil, fmt.Errorf("webspace: attribute %s.%s: value %T does not match %s", class, name, v, at)
		}
		if s, ok := v.(string); ok && uint64(len(t.cols[i].str.Data))+uint64(len(s)) > math.MaxUint32 {
			return nil, fmt.Errorf("webspace: attribute %s.%s: column passes 4 GiB", class, name)
		}
	}
	row := int32(len(t.ids))
	for i := range t.cols {
		t.cols[i].push(row, attrs[c.names[i]])
	}
	if w.n%objChunk == 0 {
		w.chunks = append(w.chunks, make([]Object, 0, objChunk))
	}
	last := &w.chunks[len(w.chunks)-1]
	*last = append(*last, Object{ID: int64(w.n) + 1, Class: class, tab: t, row: row})
	w.n++
	o := &(*last)[len(*last)-1]
	t.ids = append(t.ids, o.ID)
	return o, nil
}

func typeMatches(t AttrType, v any) bool {
	switch t {
	case AttrString, AttrText:
		_, ok := v.(string)
		return ok
	case AttrInt:
		_, ok := v.(int64)
		return ok
	case AttrFloat:
		_, ok := v.(float64)
		return ok
	case AttrBool:
		_, ok := v.(bool)
		return ok
	}
	return false
}

// Link connects from to to via the role, validating the schema.
func (w *Webspace) Link(from *Object, role string, to *Object) error {
	c := w.schema.Classes[from.Class]
	a, ok := c.Assocs[role]
	if !ok {
		return fmt.Errorf("webspace: class %q has no role %q", from.Class, role)
	}
	if a.Target != to.Class {
		return fmt.Errorf("webspace: role %s.%s targets %q, got %q", from.Class, role, a.Target, to.Class)
	}
	if !a.Many && len(from.Links[role]) >= 1 {
		return fmt.Errorf("webspace: role %s.%s is to-one and already linked", from.Class, role)
	}
	if from.Links == nil {
		from.Links = map[string][]int64{}
	}
	from.Links[role] = append(from.Links[role], to.ID)
	return nil
}

// Get returns the object with the given ID.
func (w *Webspace) Get(id int64) (*Object, bool) {
	if id < 1 || id > int64(w.n) {
		return nil, false
	}
	i := id - 1
	return &w.chunks[i/objChunk][i%objChunk], true
}

// Len returns the number of objects, whose IDs are 1 … Len().
func (w *Webspace) Len() int { return w.n }

// All returns the IDs of all objects of a class, in creation order.
func (w *Webspace) All(class string) []int64 {
	if t := w.tables[class]; t != nil {
		return append([]int64(nil), t.ids...)
	}
	return nil
}

// Op enumerates constraint operators.
type Op int

// Constraint operators. OpContains does a case-insensitive substring match
// on string/text attributes.
const (
	OpEq Op = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpContains
)

// Constraint restricts a query: follow Path from the candidate object, then
// require some reachable object to satisfy Attr Op Val (exists semantics on
// to-many paths). An empty Attr requires only that the path is non-empty.
type Constraint struct {
	Path []string
	Attr string
	Op   Op
	Val  any
}

// Query selects objects of Class satisfying all constraints.
type Query struct {
	Class string
	Where []Constraint
}

// cond is a Constraint compiled against the schema: the column its
// attribute names in the path's end class, and Val unboxed into that
// column's type. A Val of another type matches no row, as in a comparison
// of boxed values.
type cond struct {
	path  []string
	col   int // -1 when the constraint names no attribute
	op    Op
	typed bool // Val has the column's type
	s     string
	lower []byte // strings.ToLower(s), for OpContains
	i     int64
	f     float64
	b     bool
}

// Run evaluates the query, returning matching objects in creation order.
// Each constraint is compared against the typed column of its attribute;
// no value is boxed.
func (w *Webspace) Run(q Query) ([]*Object, error) {
	if _, ok := w.schema.Classes[q.Class]; !ok {
		return nil, fmt.Errorf("webspace: unknown class %q", q.Class)
	}
	conds := make([]cond, len(q.Where))
	for i, c := range q.Where {
		cls := q.Class
		for _, role := range c.Path {
			cc := w.schema.Classes[cls]
			a, ok := cc.Assocs[role]
			if !ok {
				return nil, fmt.Errorf("webspace: constraint %d: class %q has no role %q", i, cls, role)
			}
			cls = a.Target
		}
		cd := &conds[i]
		cd.path, cd.col, cd.op = c.Path, -1, c.Op
		if c.Attr == "" {
			continue
		}
		end := w.schema.Classes[cls]
		at, ok := end.Attrs[c.Attr]
		if !ok {
			return nil, fmt.Errorf("webspace: constraint %d: class %q has no attribute %q", i, cls, c.Attr)
		}
		cd.col, _ = end.attrIndex(c.Attr)
		cd.typed = typeMatches(at, c.Val)
		switch v := c.Val.(type) {
		case string:
			cd.s = v
			if c.Op == OpContains {
				cd.lower = []byte(strings.ToLower(v))
			}
		case int64:
			cd.i = v
		case float64:
			cd.f = v
		case bool:
			cd.b = v
		}
	}
	t := w.tables[q.Class]
	if t == nil {
		return nil, nil
	}
	ev := evaluator{w: w}
	var out []*Object
	for _, id := range t.ids {
		o, _ := w.Get(id)
		ok := true
		for i := range conds {
			if !ev.satisfies(o, &conds[i], conds[i].path) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, o)
		}
	}
	return out, nil
}

// evaluator runs one query's constraints; text decodes the text blocks it
// reads, and buf is the buffer OpContains lowercases stored values into.
type evaluator struct {
	w    *Webspace
	text textReader
	buf  []byte
}

// satisfies reports whether some object at the end of path from o meets c
// (exists semantics), depth first, without collecting the reachable set.
func (ev *evaluator) satisfies(o *Object, c *cond, path []string) bool {
	if len(path) == 0 {
		return c.col < 0 || ev.cmpAttr(&o.tab.cols[c.col], o.row, c)
	}
	for _, id := range o.Links[path[0]] {
		if t, ok := ev.w.Get(id); ok && ev.satisfies(t, c, path[1:]) {
			return true
		}
	}
	return false
}

// cmpAttr compares row's value in col with the constraint's. An unset row
// matches nothing; bool values support only OpEq and OpNe.
func (ev *evaluator) cmpAttr(col *column, row int32, c *cond) bool {
	if !c.typed || !col.has(row) {
		return false
	}
	switch col.typ {
	case AttrString, AttrText:
		s := ev.text.at(col, row)
		if c.op == OpContains {
			ev.buf = appendLower(slices.Grow(ev.buf[:0], len(s)), s)
			return bytes.Contains(ev.buf, c.lower)
		}
		return cmpOrdered(strings.Compare(s, c.s), c.op)
	case AttrInt:
		return c.op != OpContains && cmpOrdered(compare(col.ints[row], c.i), c.op)
	case AttrFloat:
		return c.op != OpContains && cmpOrdered(compare(col.floats[row], c.f), c.op)
	case AttrBool:
		switch c.op {
		case OpEq:
			return col.bools[row] == c.b
		case OpNe:
			return col.bools[row] != c.b
		}
	}
	return false
}

// appendLower appends strings.ToLower(s) to dst: every rune through
// unicode.ToLower, and a byte that is not valid UTF-8 as U+FFFD.
func appendLower(dst []byte, s string) []byte {
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			dst = append(dst, c)
			i++
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		dst = utf8.AppendRune(dst, unicode.ToLower(r))
		i += n
	}
	return dst
}

// compare orders a and b; an unordered pair (a NaN) compares equal.
func compare[T int64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpOrdered(c int, op Op) bool {
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	}
	return false
}

// Page is one flattened page of the web site: what a crawler sees after
// "the translation of the source data into HTML" has lost the concepts.
type Page struct {
	// Name is the page identifier (path-like).
	Name string
	// Text is the visible page text.
	Text string
	// ObjectID is the source object, for evaluation joins (not exposed to
	// the keyword engine).
	ObjectID int64
}

// SortPages orders pages by name, for deterministic iteration.
func SortPages(ps []Page) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Name < ps[j].Name })
}
