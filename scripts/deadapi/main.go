// Command deadapi is the dead-surface gate: it lists every
// exported function, method, type, var and const declared in a non-test
// file of a non-main package of the root module that nothing but tests
// reaches, and fails unless scripts/deadapi/allow.txt claims each one.
//
// A reference counts when it is in a non-test file of the root module
// outside the identifier's own declaration, or in a non-test file of a
// module nested under the root (bench/), which consumes the root module as
// code outside it would. Test files count in one case only: an Example
// function of the root package's external test package that has an output
// comment, so `go test` runs it and checks what it prints, counts for the
// root package's names it references (the product a Go user imports); its
// references to any other package do not count. A method also counts as
// used when an interface declared in either module, or in a standard
// package either imports, has a method of the same name and identical
// signature (error, fmt.Stringer, flag.Value, io.Closer, fsx.FS, …). The
// root package's re-exports of internal names (`type X = pkg.Y`,
// `var X = pkg.Y`, `const X = pkg.Y`) are exempt: they are how code outside
// the module reaches internal/.
//
// Every line of allow.txt is
//
//	<import path>.<Name>[.<Method>]  <category>: <reason>
//
// with category `oracle` (a reference implementation a named test compares
// production against), `seam` (the fsx fault seam), `ledger` (a fixture or
// scorer behind rows of testdata/quality.tsv) or `item N` (claimed by
// ROADMAP open item N). An entry also claims every finding below it, so a
// package path claims the package and a type its methods. An entry that
// claims no finding is stale and fails the gate, as does a malformed line.
//
// Run it from the repository root:
//
//	go run ./scripts/deadapi
//
// `go test ./scripts/deadapi` runs the same gate over the repository.
//
// It uses only go/parser and go/types, importing the standard library from
// source, so nothing is downloaded.
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/doc"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	allow, err := os.ReadFile(filepath.Join("scripts", "deadapi", "allow.txt"))
	if err == nil {
		var problems []string
		problems, err = gate(".", allow)
		for _, p := range problems {
			fmt.Println(p)
		}
		if err == nil && len(problems) > 0 {
			err = fmt.Errorf("%d problem(s); delete the code, or claim it in scripts/deadapi/allow.txt", len(problems))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadapi:", err)
		os.Exit(1)
	}
}

// gate checks the module rooted at root against the allowlist text and
// returns one line per finding no entry claims, per stale entry and per
// malformed line.
func gate(root string, allow []byte) ([]string, error) {
	findings, err := find(root)
	if err != nil {
		return nil, err
	}
	var problems []string
	var entries []string
	for i, line := range strings.Split(string(allow), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		m := allowLine.FindStringSubmatch(line)
		if m == nil {
			problems = append(problems, fmt.Sprintf("allow.txt:%d: want `<path>.<Name>  oracle|seam|ledger|item N: <reason>`: %q", i+1, line))
			continue
		}
		entries = append(entries, m[1])
	}
	claimed := make([]bool, len(entries))
	for _, f := range findings {
		ok := false
		for i, e := range entries {
			if f == e || strings.HasPrefix(f, e+".") {
				claimed[i], ok = true, true
			}
		}
		if !ok {
			problems = append(problems, f+": only tests reach it")
		}
	}
	for i, e := range entries {
		if !claimed[i] {
			problems = append(problems, e+": stale allow.txt entry (not a finding)")
		}
	}
	return problems, nil
}

var allowLine = regexp.MustCompile(`^(\S+)\s+(?:oracle|seam|ledger|item [1-9][0-9]*): \S`)

// checker holds the loaded packages of the root module and of the modules
// nested under it, keyed by import path.
type checker struct {
	fset    *token.FileSet
	std     types.ImporterFrom
	rootDir string
	mods    map[string]string // module path -> directory
	pkgs    map[string]*pkg
	recvID  map[token.Pos]bool // idents in method receivers
}

type pkg struct {
	types *types.Package
	info  *types.Info
	files []*ast.File
	root  bool // in the root module
}

// decl is one exported declaration the gate tracks.
type decl struct {
	name       string
	start, end token.Pos // the declaration's own span
	used       bool
}

func find(root string) ([]string, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	c := &checker{
		fset:    token.NewFileSet(),
		rootDir: root,
		mods:    map[string]string{},
		pkgs:    map[string]*pkg{},
		recvID:  map[token.Pos]bool{},
	}
	c.std = importer.ForCompiler(c.fset, "source", nil).(types.ImporterFrom)
	rootMod, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	c.mods[rootMod] = root
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if path != root {
			if mod, err := modulePath(path); err == nil {
				c.mods[mod] = path
			}
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		if _, err := c.load(c.importPath(dir), dir); err != nil {
			return nil, err
		}
	}

	decls := map[types.Object]*decl{}
	for path, p := range c.pkgs {
		if p.root && p.types.Name() != "main" {
			c.collect(path, p, path == rootMod, decls)
		}
	}
	if err := c.examples(rootMod, decls); err != nil {
		return nil, err
	}
	ifaces := c.interfaces()
	for _, p := range c.pkgs {
		for id, obj := range p.info.Uses {
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin()
			}
			d := decls[obj]
			if d != nil && !c.recvID[id.Pos()] && (id.Pos() < d.start || id.Pos() >= d.end) {
				d.used = true
			}
		}
	}
	var out []string
	for obj, d := range decls {
		if d.used {
			continue
		}
		if f, ok := obj.(*types.Func); ok && f.Type().(*types.Signature).Recv() != nil && satisfies(f, ifaces) {
			continue
		}
		out = append(out, d.name)
	}
	sort.Strings(out)
	return out, nil
}

// examples marks the root package's names that an Example function with an
// output comment references, in the files of the root package's external
// test package (package <name>_test in the root directory).
func (c *checker) examples(rootMod string, decls map[types.Object]*decl) error {
	root := c.pkgs[rootMod]
	if root == nil {
		return nil
	}
	ents, err := os.ReadDir(c.rootDir)
	if err != nil {
		return err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(c.rootDir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(c.fset, filepath.Join(c.rootDir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if f.Name.Name == root.types.Name()+"_test" {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		return nil
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: c}
	if _, err := conf.Check(rootMod+"_test", c.fset, files, info); err != nil {
		return err
	}
	checked := map[string]bool{}
	for _, ex := range doc.Examples(files...) {
		if ex.Output != "" || ex.EmptyOutput {
			checked["Example"+ex.Name] = true
		}
	}
	for _, f := range files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !checked[fn.Name.Name] {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					obj := info.Uses[id]
					if f, ok := obj.(*types.Func); ok {
						obj = f.Origin()
					}
					if d := decls[obj]; d != nil && obj.Pkg() == root.types {
						d.used = true
					}
				}
				return true
			})
		}
	}
	return nil
}

func modulePath(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s/go.mod: no module line", dir)
}

// importPath maps a directory to its import path under the innermost module
// containing it.
func (c *checker) importPath(dir string) string {
	best, bestDir := "", ""
	for mod, mdir := range c.mods {
		if (dir == mdir || strings.HasPrefix(dir, mdir+string(filepath.Separator))) && len(mdir) >= len(bestDir) {
			best, bestDir = mod, mdir
		}
	}
	rel, _ := filepath.Rel(bestDir, dir)
	if rel == "." {
		return best
	}
	return best + "/" + filepath.ToSlash(rel)
}

// dirOf maps an import path of one of the modules to its directory.
func (c *checker) dirOf(path string) (string, bool) {
	best, bestDir := "", ""
	for mod, mdir := range c.mods {
		if (path == mod || strings.HasPrefix(path, mod+"/")) && len(mod) > len(best) {
			best, bestDir = mod, mdir
		}
	}
	if best == "" {
		return "", false
	}
	return filepath.Join(bestDir, filepath.FromSlash(strings.TrimPrefix(path, best))), true
}

func (c *checker) Import(path string) (*types.Package, error) {
	return c.ImportFrom(path, "", 0)
}

func (c *checker) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if d, ok := c.dirOf(path); ok {
		p, err := c.load(path, d)
		if err != nil {
			return nil, err
		}
		if p == nil {
			return nil, fmt.Errorf("%s: no Go files", path)
		}
		return p.types, nil
	}
	return c.std.ImportFrom(path, dir, mode)
}

// load parses and type-checks the non-test files of one directory that
// match the host's build context (so only one of segfile's mmap_unix.go and
// mmap_other.go is seen). It returns nil for a directory with none.
func (c *checker) load(path, dir string) (*pkg, error) {
	if p, ok := c.pkgs[path]; ok {
		return p, nil
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: c}
	tp, err := conf.Check(path, c.fset, files, info)
	if err != nil {
		return nil, err
	}
	p := &pkg{types: tp, info: info, files: files, root: !c.nested(dir)}
	c.pkgs[path] = p
	return p, nil
}

// nested reports whether dir belongs to a module nested under the root.
func (c *checker) nested(dir string) bool {
	for _, mdir := range c.mods {
		if mdir != c.rootDir && (dir == mdir || strings.HasPrefix(dir, mdir+string(filepath.Separator))) {
			return true
		}
	}
	return false
}

// collect records the exported package-level declarations and methods of
// one root-module package, skipping the root package's re-exports.
func (c *checker) collect(path string, p *pkg, rootPkg bool, decls map[types.Object]*decl) {
	add := func(id *ast.Ident, name string, n ast.Node) {
		if obj := p.info.Defs[id]; obj != nil && id.IsExported() {
			decls[obj] = &decl{name: path + "." + name, start: n.Pos(), end: n.End()}
		}
	}
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, d.Name.Name, d)
					continue
				}
				ast.Inspect(d.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						c.recvID[id.Pos()] = true
					}
					return true
				})
				add(d.Name, recvName(d.Recv.List[0].Type)+"."+d.Name.Name, d)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if !(rootPkg && s.Assign.IsValid() && isSelector(s.Type)) {
							add(s.Name, s.Name.Name, s)
						}
					case *ast.ValueSpec:
						if rootPkg && len(s.Values) == len(s.Names) && allSelectors(s.Values) {
							continue
						}
						for _, id := range s.Names {
							add(id, id.Name, s)
						}
					}
				}
			}
		}
	}
}

func recvName(x ast.Expr) string {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.Ident:
			return t.Name
		default:
			return "?"
		}
	}
}

func isSelector(x ast.Expr) bool {
	_, ok := x.(*ast.SelectorExpr)
	return ok
}

func allSelectors(xs []ast.Expr) bool {
	for _, x := range xs {
		if !isSelector(x) {
			return false
		}
	}
	return true
}

// errorsProtocol declares the methods errors.Is, errors.As and errors.Unwrap
// probe an error for. The errors package declares these interfaces inside
// function bodies, which the source importer does not type-check.
const errorsProtocol = `package errorsprotocol

type (
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	iser           interface{ Is(error) bool }
	aser           interface{ As(any) bool }
)
`

// interfaces returns every interface type declared in the loaded packages
// (named or literal), in the standard packages they import directly and in
// errorsProtocol, plus error.
func (c *checker) interfaces() []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	named := func(scope *types.Scope) {
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					out = append(out, it)
				}
			}
		}
	}
	f, err := parser.ParseFile(c.fset, "errors-protocol.go", errorsProtocol, 0)
	if err != nil {
		panic(err)
	}
	proto, err := new(types.Config).Check("errorsprotocol", c.fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	named(proto.Scope())
	seen := map[*types.Package]bool{}
	for _, p := range c.pkgs {
		named(p.types.Scope())
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.(*types.Interface); ok {
				out = append(out, it)
			}
		}
		for _, imp := range p.types.Imports() {
			if _, ours := c.dirOf(imp.Path()); !ours && !seen[imp] {
				seen[imp] = true
				named(imp.Scope())
			}
		}
	}
	return out
}

// satisfies reports whether some interface has a method of m's name and
// signature.
func satisfies(m *types.Func, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if im := it.Method(i); im.Name() == m.Name() && types.Identical(im.Type(), m.Type()) {
				return true
			}
		}
	}
	return false
}
