// Package webspace implements the Webspace method (van Zwol & Apers,
// reference [4] of the demo paper): conceptual modelling of a limited
// domain — an Intranet or a tournament web site — so that queries can be
// formulated against the concepts (players, finals, videos) rather than
// against flattened HTML text. The paper's motivating site is the
// Australian Open: "some semantic concepts, which were clearly available in
// the source data used for this page, are lost due to the translation of
// the source data into HTML"; the webspace schema recovers them.
//
// The package provides the conceptual schema, the materialized object
// graph, a path-expression query evaluator, and a synthetic Australian Open
// site generator that emits both the object graph and the flattened pages a
// keyword-only engine would see (the baseline of experiment E8).
package webspace

import (
	"fmt"
	"sort"
)

// AttrType enumerates attribute types.
type AttrType int

// Attribute types.
const (
	AttrString AttrType = iota
	AttrInt
	AttrFloat
	AttrBool
	// AttrText marks long-form content that participates in full-text
	// indexing (page bodies, bios, interview transcripts).
	AttrText
)

// String names the type.
func (t AttrType) String() string {
	switch t {
	case AttrString:
		return "string"
	case AttrInt:
		return "int"
	case AttrFloat:
		return "float"
	case AttrBool:
		return "bool"
	case AttrText:
		return "text"
	}
	return fmt.Sprintf("attr(%d)", int(t))
}

// Assoc is a named, directed association between classes.
type Assoc struct {
	// Name is the role name used in path expressions.
	Name string
	// Target is the destination class.
	Target string
	// Many marks to-many associations.
	Many bool
}

// Class is one concept of the schema.
type Class struct {
	Name   string
	Attrs  map[string]AttrType
	Assocs map[string]Assoc

	// names are the attribute names AddClass declared, sorted: an object's
	// attribute values are stored in this order.
	names []string
}

// attrIndex returns the position of an attribute in the class's sorted
// attribute names.
func (c *Class) attrIndex(name string) (int, bool) {
	i := sort.SearchStrings(c.names, name)
	return i, i < len(c.names) && c.names[i] == name
}

// Schema is a conceptual webspace schema.
type Schema struct {
	Name    string
	Classes map[string]*Class
}

// NewSchema creates an empty schema.
func NewSchema(name string) *Schema {
	return &Schema{Name: name, Classes: map[string]*Class{}}
}

// AddClass declares a class with its attributes.
func (s *Schema) AddClass(name string, attrs map[string]AttrType) (*Class, error) {
	if name == "" {
		return nil, fmt.Errorf("webspace: class needs a name")
	}
	if _, ok := s.Classes[name]; ok {
		return nil, fmt.Errorf("webspace: duplicate class %q", name)
	}
	c := &Class{Name: name, Attrs: map[string]AttrType{}, Assocs: map[string]Assoc{}}
	for a, t := range attrs {
		c.Attrs[a] = t
		c.names = append(c.names, a)
	}
	sort.Strings(c.names)
	s.Classes[name] = c
	return c, nil
}

// AddAssoc declares an association from class from via role to class to.
func (s *Schema) AddAssoc(from, role, to string, many bool) error {
	fc, ok := s.Classes[from]
	if !ok {
		return fmt.Errorf("webspace: unknown class %q", from)
	}
	if _, ok := s.Classes[to]; !ok {
		return fmt.Errorf("webspace: unknown target class %q", to)
	}
	if _, ok := fc.Assocs[role]; ok {
		return fmt.Errorf("webspace: duplicate role %q on %q", role, from)
	}
	if _, ok := fc.Attrs[role]; ok {
		return fmt.Errorf("webspace: role %q collides with attribute on %q", role, from)
	}
	fc.Assocs[role] = Assoc{Name: role, Target: to, Many: many}
	return nil
}

// Validate checks referential consistency.
func (s *Schema) Validate() error {
	if len(s.Classes) == 0 {
		return fmt.Errorf("webspace: schema %q has no classes", s.Name)
	}
	for cn, c := range s.Classes {
		for rn, a := range c.Assocs {
			if _, ok := s.Classes[a.Target]; !ok {
				return fmt.Errorf("webspace: %s.%s targets unknown class %q", cn, rn, a.Target)
			}
		}
	}
	return nil
}
