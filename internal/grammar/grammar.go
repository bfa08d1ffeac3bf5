// Package grammar implements Acoi-style feature grammars: "the feature
// grammar ... describes the relationships between meta-data and detectors
// in a set of grammar rules". A grammar declares atoms (meta-data present
// in the raw document, e.g. the video itself) and detectors, each requiring
// a set of symbols and producing new ones; managing the meta-index "boils
// down to exploiting the dependencies in the feature grammar".
//
// From a grammar the package derives the detector dependency graph — the
// exact content of Figure 1 of the paper, exportable as DOT or text — and a
// topological execution schedule for the Feature Detector Engine
// (internal/fde).
package grammar

import (
	"fmt"
	"sort"
	"strings"
)

// Kind distinguishes white-box detectors (in-process functions the engine
// can reason about) from black-box detectors (external programs driven over
// stdio), the distinction the paper draws for the rule detectors and the
// externally implemented segment detector.
type Kind int

// Detector kinds.
const (
	WhiteBox Kind = iota
	BlackBox
)

// String names the kind.
func (k Kind) String() string {
	if k == BlackBox {
		return "blackbox"
	}
	return "whitebox"
}

// Detector is one node of the feature grammar: a named extraction step.
type Detector struct {
	// Name identifies the detector.
	Name string
	// Kind is white- or black-box.
	Kind Kind
	// Requires are the symbols that must exist before the detector runs.
	Requires []string
	// Produces are the symbols the detector populates.
	Produces []string
	// Guard is an optional condition label (e.g. "class==tennis"): the
	// engine only applies the detector to items satisfying it. Purely
	// declarative here; the FDE binds it to an executable predicate.
	Guard string
}

// Grammar is a parsed feature grammar.
type Grammar struct {
	// Name labels the grammar (e.g. "tennis").
	Name string
	// Atoms are symbols present in the raw data without any detector.
	Atoms []string
	// Detectors in declaration order.
	Detectors []*Detector
}

// Parse reads the textual grammar format:
//
//	grammar tennis;
//	atom video;
//	detector segment requires video produces shots, classes blackbox;
//	detector tennis  requires shots, classes produces players whitebox guard class==tennis;
//
// Statements end with ';'. '#' comments run to end of line.
func Parse(src string) (*Grammar, error) {
	g := &Grammar{}
	// Strip comments.
	var sb strings.Builder
	for _, line := range strings.Split(src, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	stmts := strings.Split(sb.String(), ";")
	for _, stmt := range stmts {
		fields := strings.Fields(strings.ReplaceAll(stmt, ",", " , "))
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "grammar":
			if len(fields) != 2 {
				return nil, fmt.Errorf("grammar: bad grammar statement: %q", stmt)
			}
			g.Name = fields[1]
		case "atom":
			if len(fields) < 2 {
				return nil, fmt.Errorf("grammar: bad atom statement: %q", stmt)
			}
			for _, f := range fields[1:] {
				if f == "," {
					continue
				}
				g.Atoms = append(g.Atoms, f)
			}
		case "detector":
			d, err := parseDetector(fields)
			if err != nil {
				return nil, err
			}
			g.Detectors = append(g.Detectors, d)
		default:
			return nil, fmt.Errorf("grammar: unknown statement %q", fields[0])
		}
	}
	if g.Name == "" {
		return nil, fmt.Errorf("grammar: missing grammar name")
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// MustParse parses or panics; for grammars embedded in source.
func MustParse(src string) *Grammar {
	g, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return g
}

func parseDetector(fields []string) (*Detector, error) {
	// detector NAME requires a, b produces c, d whitebox|blackbox [guard EXPR]
	d := &Detector{}
	if len(fields) < 2 {
		return nil, fmt.Errorf("grammar: detector needs a name")
	}
	d.Name = fields[1]
	i := 2
	readList := func() []string {
		var out []string
		for i < len(fields) {
			f := fields[i]
			if f == "," {
				i++
				continue
			}
			if f == "requires" || f == "produces" || f == "whitebox" || f == "blackbox" || f == "guard" {
				break
			}
			out = append(out, f)
			i++
		}
		return out
	}
	seenKind := false
	for i < len(fields) {
		switch fields[i] {
		case "requires":
			i++
			d.Requires = readList()
		case "produces":
			i++
			d.Produces = readList()
		case "whitebox":
			d.Kind = WhiteBox
			seenKind = true
			i++
		case "blackbox":
			d.Kind = BlackBox
			seenKind = true
			i++
		case "guard":
			i++
			var parts []string
			for i < len(fields) {
				parts = append(parts, fields[i])
				i++
			}
			d.Guard = strings.Join(parts, " ")
		default:
			return nil, fmt.Errorf("grammar: detector %s: unexpected token %q", d.Name, fields[i])
		}
	}
	if len(d.Requires) == 0 {
		return nil, fmt.Errorf("grammar: detector %s requires nothing", d.Name)
	}
	if len(d.Produces) == 0 {
		return nil, fmt.Errorf("grammar: detector %s produces nothing", d.Name)
	}
	if !seenKind {
		return nil, fmt.Errorf("grammar: detector %s missing whitebox/blackbox", d.Name)
	}
	return d, nil
}

// Validate checks structural sanity: unique names, every required symbol
// produced by an atom or exactly one detector, and acyclicity.
func (g *Grammar) Validate() error {
	if len(g.Detectors) == 0 {
		return fmt.Errorf("grammar %s: no detectors", g.Name)
	}
	names := map[string]bool{}
	producer := map[string]string{}
	for _, a := range g.Atoms {
		producer[a] = "" // atom
	}
	for _, d := range g.Detectors {
		if names[d.Name] {
			return fmt.Errorf("grammar %s: duplicate detector %q", g.Name, d.Name)
		}
		names[d.Name] = true
		for _, p := range d.Produces {
			if prev, ok := producer[p]; ok {
				who := prev
				if who == "" {
					who = "atom declaration"
				}
				return fmt.Errorf("grammar %s: symbol %q produced by both %s and %s", g.Name, p, who, d.Name)
			}
			producer[p] = d.Name
		}
	}
	for _, d := range g.Detectors {
		for _, r := range d.Requires {
			if _, ok := producer[r]; !ok {
				return fmt.Errorf("grammar %s: detector %s requires unknown symbol %q", g.Name, d.Name, r)
			}
		}
	}
	if _, err := g.Schedule(); err != nil {
		return err
	}
	return nil
}

// producers maps each symbol to the detector producing it ("" for atoms).
func (g *Grammar) producers() map[string]string {
	m := map[string]string{}
	for _, a := range g.Atoms {
		m[a] = ""
	}
	for _, d := range g.Detectors {
		for _, p := range d.Produces {
			m[p] = d.Name
		}
	}
	return m
}

// DependsOn returns the detector-level dependency edges: B depends on A
// when B requires a symbol A produces. The map is keyed by detector name
// with sorted upstream detector names as values (atoms excluded).
func (g *Grammar) DependsOn() map[string][]string {
	prod := g.producers()
	out := map[string][]string{}
	for _, d := range g.Detectors {
		seen := map[string]bool{}
		for _, r := range d.Requires {
			if up := prod[r]; up != "" && !seen[up] {
				seen[up] = true
				out[d.Name] = append(out[d.Name], up)
			}
		}
		sort.Strings(out[d.Name])
	}
	return out
}

// Schedule returns the detectors in a valid execution order (dependencies
// first). It fails on cycles.
func (g *Grammar) Schedule() ([]*Detector, error) {
	deps := g.DependsOn()
	indeg := map[string]int{}
	byName := map[string]*Detector{}
	for _, d := range g.Detectors {
		byName[d.Name] = d
		indeg[d.Name] = len(deps[d.Name])
	}
	downstream := map[string][]string{}
	for name, ups := range deps {
		for _, up := range ups {
			downstream[up] = append(downstream[up], name)
		}
	}
	// Kahn's algorithm in a deterministic order. The ready queue is first
	// in, first out and is not kept sorted: it starts in declaration order,
	// and the successors each step makes ready join its tail sorted by name.
	var ready []string
	for _, d := range g.Detectors {
		if indeg[d.Name] == 0 {
			ready = append(ready, d.Name)
		}
	}
	var out []*Detector
	for len(ready) > 0 {
		name := ready[0]
		ready = ready[1:]
		out = append(out, byName[name])
		next := downstream[name]
		sort.Strings(next)
		for _, dn := range next {
			indeg[dn]--
			if indeg[dn] == 0 {
				ready = append(ready, dn)
			}
		}
	}
	if len(out) != len(g.Detectors) {
		var stuck []string
		for n, k := range indeg {
			if k > 0 {
				stuck = append(stuck, n)
			}
		}
		sort.Strings(stuck)
		return nil, fmt.Errorf("grammar %s: dependency cycle among: %s", g.Name, strings.Join(stuck, ", "))
	}
	return out, nil
}

// Detector returns the named detector, or nil.
func (g *Grammar) Detector(name string) *Detector {
	for _, d := range g.Detectors {
		if d.Name == name {
			return d
		}
	}
	return nil
}
