package webspace

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// refCmpAttr is the boxed comparison Run made before attribute values
// became typed columns: the oracle TestRunMatchesBoxedReference holds the
// column evaluator to.
func refCmpAttr(v any, op Op, want any) bool {
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
		switch {
		case a < b:
			return cmpOrdered(-1, op)
		case a > b:
			return cmpOrdered(1, op)
		default:
			return cmpOrdered(0, op)
		}
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

// refRun evaluates q over boxed attribute values (vals, by object ID) with
// breadth-first path walks: Run as it was before the columns.
func refRun(w *Webspace, vals map[int64]map[string]any, q Query) []int64 {
	walk := func(o *Object, path []string) []*Object {
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
		}
		return cur
	}
	var out []int64
	for _, id := range w.All(q.Class) {
		o, _ := w.Get(id)
		ok := true
		for _, c := range q.Where {
			reached := walk(o, c.Path)
			hit := len(reached) > 0 && c.Attr == ""
			for _, r := range reached {
				if c.Attr != "" && refCmpAttr(vals[r.ID][c.Attr], c.Op, c.Val) {
					hit = true
				}
			}
			if !hit {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, id)
		}
	}
	return out
}

var (
	propStrings = []string{
		"", "a", "A", "ab", "Zürich", "ZÜRICH open", "straße", "STRASSE",
		"İstanbul", "ǅemal", "left-Handed", "\xffbad\xfe", "ﬁnal", "Ωmega",
	}
	propFloats = []float64{-1.5, 0, math.Copysign(0, -1), 0.25, 2, math.Inf(1), math.NaN()}
)

// propValue draws a value of the attribute type's Go type from a small
// domain, so that equality constraints hit.
func propValue(rng *rand.Rand, t AttrType) any {
	switch t {
	case AttrString, AttrText:
		return propStrings[rng.Intn(len(propStrings))]
	case AttrInt:
		return int64(rng.Intn(7) - 3)
	case AttrFloat:
		return propFloats[rng.Intn(len(propFloats))]
	default:
		return rng.Intn(2) == 0
	}
}

// propWant draws a constraint value: usually of the attribute's type, but
// also a value of another type, an untyped int or nil, which match nothing.
func propWant(rng *rand.Rand, t AttrType) any {
	switch rng.Intn(10) {
	case 0:
		return propValue(rng, AttrType(rng.Intn(5)))
	case 1:
		return rng.Intn(3)
	case 2:
		return nil
	}
	if v := propValue(rng, t); rng.Intn(4) == 0 {
		if s, ok := v.(string); ok {
			// A substring in another case, for OpContains.
			if len(s) > 1 {
				s = s[rng.Intn(len(s)/2):]
			}
			return strings.ToUpper(s)
		}
	}
	return propValue(rng, t)
}

// TestRunMatchesBoxedReference: over seeded random webspaces with every
// attribute type, unset attributes and cyclic associations, Run returns
// exactly what the boxed reference evaluator returns for random queries
// with every operator and paths of up to three hops, and Attr and
// StringAttr read back every value NewObject was given.
func TestRunMatchesBoxedReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewSchema("prop")
		attrs := map[string]AttrType{
			"s": AttrString, "t": AttrText, "i": AttrInt, "f": AttrFloat, "b": AttrBool,
		}
		classes := []string{"A", "B", "C"}
		for _, c := range classes {
			if _, err := s.AddClass(c, attrs); err != nil {
				t.Fatal(err)
			}
		}
		roles := map[string][]string{}
		for _, a := range []struct {
			from, role, to string
			many           bool
		}{
			{"A", "bs", "B", true}, {"A", "self", "A", true}, {"B", "c", "C", false},
			{"B", "as", "A", true}, {"C", "a", "A", false}, {"C", "cs", "C", true},
		} {
			if err := s.AddAssoc(a.from, a.role, a.to, a.many); err != nil {
				t.Fatal(err)
			}
			roles[a.from] = append(roles[a.from], a.role)
		}
		w, err := New(s)
		if err != nil {
			t.Fatal(err)
		}
		vals := map[int64]map[string]any{}
		var objs []*Object
		for i := 0; i < 40+rng.Intn(160); i++ {
			set := map[string]any{}
			for name, at := range attrs {
				if rng.Intn(3) > 0 {
					set[name] = propValue(rng, at)
				}
			}
			o, err := w.NewObject(classes[rng.Intn(len(classes))], set)
			if err != nil {
				t.Fatal(err)
			}
			objs, vals[o.ID] = append(objs, o), set
		}
		for i := 0; i < 3*len(objs); i++ {
			from := objs[rng.Intn(len(objs))]
			role := roles[from.Class][rng.Intn(len(roles[from.Class]))]
			to := objs[rng.Intn(len(objs))]
			_ = w.Link(from, role, to) // a wrong target or a full to-one role is refused
		}
		for _, o := range objs {
			for name := range attrs {
				want, _ := vals[o.ID][name]
				if got := boxed(o, name); !reflect.DeepEqual(got, want) && !isNaN(got, want) {
					t.Fatalf("seed %d: object %d attribute %q = %#v, want %#v", seed, o.ID, name, got, want)
				}
				ws, _ := want.(string)
				if got := o.StringAttr(name); got != ws {
					t.Fatalf("seed %d: object %d StringAttr(%q) = %q, want %q", seed, o.ID, name, got, ws)
				}
			}
		}
		for qi := 0; qi < 300; qi++ {
			q := Query{Class: classes[rng.Intn(len(classes))]}
			for n := rng.Intn(3) + 1; n > 0; n-- {
				var c Constraint
				cls := q.Class
				for hops := rng.Intn(4); hops > 0; hops-- {
					role := roles[cls][rng.Intn(len(roles[cls]))]
					c.Path = append(c.Path, role)
					cls = s.Classes[cls].Assocs[role].Target
				}
				if rng.Intn(5) > 0 {
					names := s.Classes[cls].names
					c.Attr = names[rng.Intn(len(names))]
					c.Op = Op(rng.Intn(int(OpContains) + 2)) // one past the last Op too
					c.Val = propWant(rng, attrs[c.Attr])
				}
				q.Where = append(q.Where, c)
			}
			got, err := w.Run(q)
			if err != nil {
				t.Fatalf("seed %d query %d: %v", seed, qi, err)
			}
			var ids []int64
			for _, o := range got {
				ids = append(ids, o.ID)
			}
			if want := refRun(w, vals, q); !reflect.DeepEqual(ids, want) {
				t.Fatalf("seed %d query %d %+v:\n got %v\nwant %v", seed, qi, q, ids, want)
			}
		}
	}
}

// boxed reads attribute name of o from its typed column as the value
// NewObject took: a string, int64, float64 or bool, or nil when o does not
// set it.
func boxed(o *Object, name string) any {
	i, ok := o.tab.class.attrIndex(name)
	if !ok || !o.tab.cols[i].has(o.row) {
		return nil
	}
	switch c := &o.tab.cols[i]; c.typ {
	case AttrString, AttrText:
		return c.str.At(int(o.row))
	case AttrInt:
		return c.ints[o.row]
	case AttrFloat:
		return c.floats[o.row]
	default:
		return c.bools[o.row]
	}
}

func isNaN(a, b any) bool {
	x, ok1 := a.(float64)
	y, ok2 := b.(float64)
	return ok1 && ok2 && math.IsNaN(x) && math.IsNaN(y)
}

// TestContainsFoldsUnicode: OpContains matches as strings.Contains over
// strings.ToLower of both sides, for non-ASCII and mixed-case values and
// needles, without folding what ToLower does not (ß is not "ss").
func TestContainsFoldsUnicode(t *testing.T) {
	s := NewSchema("fold")
	if _, err := s.AddClass("Doc", map[string]AttrType{"text": AttrText}); err != nil {
		t.Fatal(err)
	}
	w, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	texts := []string{"ZÜRICH Open", "straße", "ǅemal", "İstanbul", "ΣΟΦΊΑ", "\xffLEFT", "plain ascii"}
	for _, tx := range texts {
		if _, err := w.NewObject("Doc", map[string]any{"text": tx}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.NewObject("Doc", nil); err != nil { // unset: matches nothing
		t.Fatal(err)
	}
	for _, tc := range []struct {
		needle string
		want   []int64
	}{
		{"zürich", []int64{1}},
		{"Zürich OPEN", []int64{1}},
		{"STRASSE", nil},
		{"STRAßE", []int64{2}},
		{"ǆ", []int64{3}},
		{"Ǆemal", []int64{3}},
		{"istanbul", []int64{4}},
		{"σοφία", []int64{5}},
		{"\uFFFDleft", []int64{6}},
		{"", []int64{1, 2, 3, 4, 5, 6, 7}},
		{"ASCII", []int64{7}},
	} {
		got, err := w.Run(Query{Class: "Doc", Where: []Constraint{{Attr: "text", Op: OpContains, Val: tc.needle}}})
		if err != nil {
			t.Fatal(err)
		}
		var ids []int64
		for _, o := range got {
			ids = append(ids, o.ID)
		}
		if !reflect.DeepEqual(ids, tc.want) {
			t.Errorf("contains %q = %v, want %v", tc.needle, ids, tc.want)
		}
		var ref []int64
		for i, tx := range texts {
			if strings.Contains(strings.ToLower(tx), strings.ToLower(tc.needle)) {
				ref = append(ref, int64(i+1))
			}
		}
		if !reflect.DeepEqual(ids, ref) {
			t.Errorf("contains %q = %v, strings.ToLower says %v", tc.needle, ids, ref)
		}
	}
}

// TestAppendLowerIsToLower: appendLower writes strings.ToLower's bytes for
// random strings of ASCII, multi-byte runes and invalid UTF-8.
func TestAppendLowerIsToLower(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	parts := []string{"a", "Q", "-", "Ü", "ß", "İ", "ǅ", "Σ", "ﬁ", "\xff", "\xe2\x82", "\uFFFD", "K", "\u212a"}
	var buf []byte
	for i := 0; i < 2000; i++ {
		var sb strings.Builder
		for n := rng.Intn(8); n > 0; n-- {
			sb.WriteString(parts[rng.Intn(len(parts))])
		}
		in := sb.String()
		buf = appendLower(buf[:0], in)
		if want := strings.ToLower(in); string(buf) != want {
			t.Fatalf("appendLower(%q) = %q, want %q", in, buf, want)
		}
	}
}

// TestRunAllocationsFlatInRows: a concept query compares its constraints
// against the columns, so what it allocates does not grow with the rows it
// scans — a path walk and an OpContains cost nothing per row. Over four
// times the players only the result slice doubles about twice more.
func TestRunAllocationsFlatInRows(t *testing.T) {
	queries := []Query{
		{Class: "Player", Where: []Constraint{{Attr: "bio", Op: OpContains, Val: "LEFT-handed"}}},
		{Class: "Player", Where: []Constraint{
			{Attr: "sex", Op: OpEq, Val: "female"},
			{Path: []string{"playedFinals", "winner"}, Attr: "country", Op: OpNe, Val: "Spain"},
		}},
		MotivatingQuery(),
	}
	allocs := func(players int) []float64 {
		site, err := GenerateAusOpen(SiteConfig{Players: players, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		for _, q := range queries {
			out = append(out, testing.AllocsPerRun(10, func() {
				if _, err := site.W.Run(q); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return out
	}
	small, large := allocs(1024), allocs(4096)
	for i, q := range queries {
		if large[i] > small[i]+3 {
			t.Errorf("%+v: %.0f allocations over 1,024 players, %.0f over 4,096", q.Where, small[i], large[i])
		}
	}
}

// BenchmarkGenerateSite builds dlbench's site (8,192 players, 40 years of
// finals): the webspace graph and the flattened pages a node generates at
// every boot.
func BenchmarkGenerateSite(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		site, err := GenerateAusOpen(SiteConfig{Players: 8192, YearStart: 1962, YearEnd: 2001, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(site.W.Len()), "objects")
		}
	}
}
