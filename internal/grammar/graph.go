package grammar

import (
	"fmt"
	"sort"
	"strings"
)

// DOT renders the detector dependency graph — the content of Figure 1 of
// the paper — in Graphviz DOT format. Atoms are boxes, white-box detectors
// ellipses, black-box detectors shaded ellipses; edges are labelled with
// the symbols that flow along them.
func (g *Grammar) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", g.Name)
	b.WriteString("  rankdir=TB;\n")
	for _, a := range g.Atoms {
		fmt.Fprintf(&b, "  %q [shape=box];\n", a)
	}
	for _, d := range g.Detectors {
		style := ""
		if d.Kind == BlackBox {
			style = ", style=filled, fillcolor=lightgray"
		}
		label := d.Name
		if d.Guard != "" {
			label += "\\n[" + d.Guard + "]"
		}
		fmt.Fprintf(&b, "  %q [shape=ellipse, label=\"%s\"%s];\n", d.Name, label, style)
	}
	prod := g.producers()
	for _, d := range g.Detectors {
		// Group the symbols flowing from each upstream node.
		bySource := map[string][]string{}
		for _, r := range d.Requires {
			src, ok := prod[r]
			if !ok {
				continue
			}
			if src == "" {
				src = r // atom: edge from the atom node itself
			}
			bySource[src] = append(bySource[src], r)
		}
		srcs := make([]string, 0, len(bySource))
		for s := range bySource {
			srcs = append(srcs, s)
		}
		sort.Strings(srcs)
		for _, src := range srcs {
			syms := bySource[src]
			sort.Strings(syms)
			label := strings.Join(syms, ", ")
			if src == label {
				label = "" // atom flowing itself needs no edge label
			}
			if label != "" {
				fmt.Fprintf(&b, "  %q -> %q [label=%q];\n", src, d.Name, label)
			} else {
				fmt.Fprintf(&b, "  %q -> %q;\n", src, d.Name)
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// Text renders the dependency graph as an indented text tree rooted at the
// atoms, for terminals without Graphviz.
func (g *Grammar) Text() string {
	deps := g.DependsOn()
	downstream := map[string][]string{}
	for name, ups := range deps {
		for _, up := range ups {
			downstream[up] = append(downstream[up], name)
		}
	}
	// Atom-fed detectors are roots.
	var roots []string
	for _, d := range g.Detectors {
		if len(deps[d.Name]) == 0 {
			roots = append(roots, d.Name)
		}
	}
	sort.Strings(roots)
	var b strings.Builder
	fmt.Fprintf(&b, "feature grammar %q\n", g.Name)
	fmt.Fprintf(&b, "atoms: %s\n", strings.Join(g.Atoms, ", "))
	var walk func(name string, depth int, seen map[string]bool)
	walk = func(name string, depth int, seen map[string]bool) {
		d := g.Detector(name)
		guard := ""
		if d.Guard != "" {
			guard = " [" + d.Guard + "]"
		}
		fmt.Fprintf(&b, "%s%s (%s)%s -> %s\n",
			strings.Repeat("  ", depth), name, d.Kind, guard,
			strings.Join(d.Produces, ", "))
		if seen[name] {
			return
		}
		seen[name] = true
		next := append([]string(nil), downstream[name]...)
		sort.Strings(next)
		for _, n := range next {
			walk(n, depth+1, seen)
		}
	}
	seen := map[string]bool{}
	for _, r := range roots {
		walk(r, 0, seen)
	}
	return b.String()
}

// TennisGrammar is the feature grammar of the tennis Feature Detector
// Engine, reproducing Figure 1: the segment detector (black-box, external
// in the original system) segments and classifies shots; the tennis
// detector runs on shots classified "tennis" and tracks the players,
// extracting positions and shape features; the event detectors interpret
// the trajectories through spatio-temporal rules.
const TennisGrammar = `
grammar tennis;

atom video;

# The externally implemented segment detector: shot boundaries via colour
# histogram differences, plus shot classification.
detector segment requires video produces shots, classes blackbox;

# The tennis detector: player segmentation and tracking with shape
# features; runs only on shots classified as tennis.
detector tennis requires shots, classes produces players, trajectories, shapes whitebox guard class==tennis;

# Event inference from player trajectories via spatio-temporal rules.
detector netplay requires trajectories produces event_netplay whitebox;
detector rally   requires trajectories, shapes produces event_rally whitebox;
detector service requires trajectories produces event_service whitebox;
`

// Tennis returns the parsed tennis feature grammar.
func Tennis() *Grammar { return MustParse(TennisGrammar) }
