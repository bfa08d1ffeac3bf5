package webspace

import (
	"fmt"
	"sort"
	"strings"
)

// Object is one instance in the materialized webspace, made by NewObject.
type Object struct {
	ID    int64
	Class string
	// Links maps role names to target object IDs; nil until the first link.
	Links map[string][]int64

	class *Class
	// vals holds the attribute values — string, int64, float64 or bool, nil
	// where unset — aligned with class.names.
	vals []any
}

// Attr returns the value of an attribute: a string, int64, float64 or bool,
// or nil when the object does not set it.
func (o *Object) Attr(name string) any {
	if i, ok := o.class.attrIndex(name); ok {
		return o.vals[i]
	}
	return nil
}

// StringAttr returns a string/text attribute or "".
func (o *Object) StringAttr(name string) string {
	s, _ := o.Attr(name).(string)
	return s
}

// Webspace is a materialized object graph conforming to a schema. Object
// IDs are dense: the webspace hands out 1, 2, … in creation order, and
// objects[id-1] is object id.
type Webspace struct {
	schema  *Schema
	objects []*Object
	byClass map[string][]int64
}

// New creates an empty webspace over a validated schema.
func New(s *Schema) (*Webspace, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &Webspace{schema: s, byClass: map[string][]int64{}}, nil
}

// Schema returns the webspace's schema.
func (w *Webspace) Schema() *Schema { return w.schema }

// NewObject materializes an instance of the class, validating attributes.
func (w *Webspace) NewObject(class string, attrs map[string]any) (*Object, error) {
	c, ok := w.schema.Classes[class]
	if !ok {
		return nil, fmt.Errorf("webspace: unknown class %q", class)
	}
	o := &Object{
		ID:    int64(len(w.objects)) + 1,
		Class: class,
		class: c,
		vals:  make([]any, len(c.names)),
	}
	for name, v := range attrs {
		i, ok := c.attrIndex(name)
		if !ok {
			return nil, fmt.Errorf("webspace: class %q has no attribute %q", class, name)
		}
		if at := c.Attrs[name]; !typeMatches(at, v) {
			return nil, fmt.Errorf("webspace: attribute %s.%s: value %T does not match %s", class, name, v, at)
		}
		o.vals[i] = v
	}
	w.objects = append(w.objects, o)
	w.byClass[class] = append(w.byClass[class], o.ID)
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
	if id < 1 || id > int64(len(w.objects)) {
		return nil, false
	}
	return w.objects[id-1], true
}

// Len returns the number of objects, whose IDs are 1 … Len().
func (w *Webspace) Len() int { return len(w.objects) }

// All returns the IDs of all objects of a class, in creation order.
func (w *Webspace) All(class string) []int64 {
	return append([]int64(nil), w.byClass[class]...)
}

// Count returns the number of objects of a class.
func (w *Webspace) Count(class string) int { return len(w.byClass[class]) }

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

// Run evaluates the query, returning matching objects in creation order.
func (w *Webspace) Run(q Query) ([]*Object, error) {
	if _, ok := w.schema.Classes[q.Class]; !ok {
		return nil, fmt.Errorf("webspace: unknown class %q", q.Class)
	}
	// Static validation of constraint paths and attributes.
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
		if c.Attr != "" {
			if _, ok := w.schema.Classes[cls].Attrs[c.Attr]; !ok {
				return nil, fmt.Errorf("webspace: constraint %d: class %q has no attribute %q", i, cls, c.Attr)
			}
		}
	}
	var out []*Object
	for _, id := range w.byClass[q.Class] {
		o := w.objects[id-1]
		ok := true
		for _, c := range q.Where {
			if !w.satisfies(o, c) {
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

// satisfies checks one constraint with exists semantics.
func (w *Webspace) satisfies(o *Object, c Constraint) bool {
	reached := w.walk(o, c.Path)
	if len(reached) == 0 {
		return false
	}
	if c.Attr == "" {
		return true
	}
	for _, r := range reached {
		if cmpAttr(r.Attr(c.Attr), c.Op, c.Val) {
			return true
		}
	}
	return false
}

// walk follows a role path breadth-first, returning the reachable objects.
func (w *Webspace) walk(o *Object, path []string) []*Object {
	cur := []*Object{o}
	for _, role := range path {
		var next []*Object
		for _, c := range cur {
			for _, id := range c.Links[role] {
				if t, ok := w.Get(id); ok {
					next = append(next, t)
				}
			}
		}
		cur = next
		if len(cur) == 0 {
			return nil
		}
	}
	return cur
}

func cmpAttr(v any, op Op, want any) bool {
	switch op {
	case OpContains:
		s, ok1 := v.(string)
		sub, ok2 := want.(string)
		return ok1 && ok2 && strings.Contains(strings.ToLower(s), strings.ToLower(sub))
	}
	switch a := v.(type) {
	case string:
		b, ok := want.(string)
		if !ok {
			return false
		}
		return cmpOrdered(strings.Compare(a, b), op)
	case int64:
		b, ok := want.(int64)
		if !ok {
			return false
		}
		return cmpOrdered(compareInt(a, b), op)
	case float64:
		b, ok := want.(float64)
		if !ok {
			return false
		}
		switch {
		case a < b:
			return cmpOrdered(-1, op)
		case a > b:
			return cmpOrdered(1, op)
		default:
			return cmpOrdered(0, op)
		}
	case bool:
		b, ok := want.(bool)
		if !ok {
			return false
		}
		if op == OpEq {
			return a == b
		}
		if op == OpNe {
			return a != b
		}
		return false
	}
	return false
}

func compareInt(a, b int64) int {
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
