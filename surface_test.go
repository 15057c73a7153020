package repro

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/doc"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowlist names the internal declarations that nothing outside
// tests uses yet, each beside the ROADMAP item that starts from it. An entry
// is "pkg.Name" or "pkg.Type.Method", pkg being the package's directory
// under internal/.
var surfaceAllowlist = map[string]string{
	"perfmodel.ProfileFunc":      "ROADMAP, the planner prices this machine: its host profile starts here",
	"moe.GShardGate.AuxBackward": "ROADMAP, a loss on the step path: the aux loss's gradient",
}

// TestSurfaceIsWhatNonTestCodeCalls holds the surface to what the program
// uses, resolving every reference with go/types. Every package-level func,
// type, const and var, and every method, declared in a non-test file under
// internal/ or fsmoe/ must be used:
//
//   - A declaration is used when a non-test reference outside its own body
//     resolves to it (a type's body is its spec and its methods), or when a
//     runnable fsmoe Example (one with an "// Output:" comment that go test
//     checks) refers to it.
//   - A method is also used when its receiver type implements an interface
//     whose method is used so, or when non-test code converts a value of
//     the type to an interface the standard library declares — assigns,
//     passes, returns or asserts it — which names the method: the
//     library's callers are code this test does not read. A value handed
//     over as an any (fmt's arguments) uses nothing: call String()
//     explicitly where its text is printed.
//   - A var or func that an assembly file of its package names is used.
//   - A const block of one named type is one enumeration: it is used when
//     any member is.
//   - An exported fsmoe name counts only when it is referenced from outside
//     fsmoe (cmd/, examples/, bench/, the root package) or from a runnable
//     Example, or, for a type, when a kept exported signature or field of
//     fsmoe's API names it, so that a caller or implementer can write it.
//
// Each file is judged under every context of surfaceContexts that selects
// it; a declaration used under any of them is used. Every package under
// internal/ must also be imported by a non-test file of this module outside
// its own directory.
func TestSurfaceIsWhatNonTestCodeCalls(t *testing.T) {
	msgs, err := surfaceViolations(".", "repro", surfaceAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range msgs {
		t.Error(msg)
	}
}

// TestSurfaceCheckerFixture runs the checker on testdata/surface, a tree
// whose every case is known: a dead method that a same-named field in
// another package hides from a name-based resolver, a method reached only
// through an interface, a var only assembly names, files only a
// non-default build context selects, and two String methods, one of a
// type the tree converts to fmt.Stringer and one of a type it only hands
// fmt as an any.
func TestSurfaceCheckerFixture(t *testing.T) {
	got, err := surfaceViolations(filepath.Join("testdata", "surface"), "fixture", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, msg := range got { // positions are the fixture's business, not the test's
		if _, rest, ok := strings.Cut(msg, ": "); ok && strings.HasPrefix(msg, "testdata") {
			got[i] = rest
		}
	}
	want := []string{
		"a.Conn.Close has no reference from non-test code: delete it, or move it into a test file",
		"stringer.Dead.String has no reference from non-test code: delete it, or move it into a test file",
		"tagged.deadOther has no reference from non-test code: delete it, or move it into a test file",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("violations:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// surfaceContexts are the build configurations files are judged under: the
// default one, the portable GEMM path, and a GOOS without Linux's
// writeback hint.
func surfaceContexts() []*build.Context {
	linux := build.Default
	linux.GOOS, linux.GOARCH, linux.CgoEnabled, linux.BuildTags = "linux", "amd64", false, nil
	purego, darwin := linux, linux
	purego.BuildTags = []string{"purego"}
	darwin.GOOS = "darwin"
	return []*build.Context{&linux, &purego, &darwin}
}

// srcPkg is one directory of the tree: its non-test Go files, parsed once
// and shared by every context's check, and its assembly files.
type srcPkg struct {
	path, dir string
	inRoot    bool // in the root module, not a nested one such as bench/
	files     map[string]*ast.File
	asm       []string
	examples  []*ast.File // fsmoe's external test files, for their runnable Examples
}

// surfaceDecl is one checked declaration, the same object under every
// context (its name's position is its identity).
type surfaceDecl struct {
	key   string     // "pkg.Name" or "pkg.Type.Method"
	group token.Pos  // the enumeration a const belongs to, or its own position
	own   []ast.Node // its body: references inside do not count
	pub   bool       // an exported fsmoe name: only references from outside fsmoe count
	file  string     // its position, for the message
}

type surfaceTree struct {
	root, module string
	fset         *token.FileSet
	pkgs         map[string]*srcPkg // by import path
	allow        map[string]string
	std          types.Importer
	decls        map[token.Pos]*surfaceDecl
	used         map[token.Pos]bool // by declaration position, or enumeration
}

// surfaceViolations loads the tree at root, whose root module is module, and
// lists every declaration under internal/ and fsmoe/ no context uses, each
// allowlist entry that is stale, and each orphan internal package.
func surfaceViolations(root, module string, allow map[string]string) ([]string, error) {
	tr := &surfaceTree{root: root, module: module, allow: allow, fset: token.NewFileSet(), pkgs: map[string]*srcPkg{},
		decls: map[token.Pos]*surfaceDecl{}, used: map[token.Pos]bool{}}
	if err := tr.parse(); err != nil {
		return nil, err
	}
	tr.std = importer.ForCompiler(tr.fset, "source", nil)
	for _, ctx := range surfaceContexts() {
		if err := tr.check(ctx); err != nil {
			return nil, fmt.Errorf("%s/%s %v: %w", ctx.GOOS, ctx.GOARCH, ctx.BuildTags, err)
		}
	}
	return tr.violations(), nil
}

// parse reads every directory under root, skipping hidden ones and testdata.
func (tr *surfaceTree) parse() error {
	modules := map[string]bool{}
	return filepath.WalkDir(tr.root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(tr.root, p)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if p != tr.root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				modules[rel] = true
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, ".s") {
			return nil
		}
		dir := path.Dir(rel)
		pkg := tr.pkgs[path.Join(tr.module, dir)]
		if pkg == nil {
			mod := dir
			for mod != "." && !modules[mod] {
				mod = path.Dir(mod)
			}
			pkg = &srcPkg{path: path.Join(tr.module, dir), dir: filepath.Dir(p), inRoot: mod == ".", files: map[string]*ast.File{}}
			tr.pkgs[pkg.path] = pkg
		}
		switch {
		case strings.HasSuffix(name, ".s"):
			pkg.asm = append(pkg.asm, name)
		case strings.HasSuffix(name, "_test.go"):
			if pkg.path != tr.module+"/fsmoe" {
				return nil
			}
			f, err := parser.ParseFile(tr.fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			if strings.HasSuffix(f.Name.Name, "_test") {
				pkg.examples = append(pkg.examples, f)
			}
		default:
			f, err := parser.ParseFile(tr.fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkg.files[name] = f
		}
		return nil
	})
}

// checkedPkg is one package type-checked under one context.
type checkedPkg struct {
	src   *srcPkg
	files []*ast.File
	info  *types.Info
	types *types.Package
	// examples marks fsmoe's external test package, whose only references
	// that count are those inside users, its runnable Examples' bodies.
	examples bool
	users    []ast.Node
}

// check type-checks every package under ctx and records its declarations
// and what its references use.
func (tr *surfaceTree) check(ctx *build.Context) error {
	checked := map[string]*checkedPkg{}
	var errs []error
	var load func(path string) (*checkedPkg, error)
	imp := importerFunc(func(p string) (*types.Package, error) {
		if tr.pkgs[p] == nil {
			return tr.std.Import(p)
		}
		c, err := load(p)
		if err != nil {
			return nil, err
		}
		return c.types, nil
	})
	conf := types.Config{Importer: imp, Error: func(err error) { errs = append(errs, err) }}
	typecheck := func(c *checkedPkg) {
		c.info = &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
		c.types, _ = conf.Check(c.src.path, tr.fset, c.files, c.info)
	}
	load = func(p string) (*checkedPkg, error) {
		if c, ok := checked[p]; ok {
			if c == nil {
				return nil, fmt.Errorf("import cycle through %s", p)
			}
			return c, nil
		}
		checked[p] = nil
		src := tr.pkgs[p]
		c := &checkedPkg{src: src}
		for _, name := range slices.Sorted(maps.Keys(src.files)) {
			if ok, err := ctx.MatchFile(src.dir, name); err != nil {
				return nil, err
			} else if ok {
				c.files = append(c.files, src.files[name])
			}
		}
		if len(c.files) > 0 {
			typecheck(c)
		}
		checked[p] = c
		return c, nil
	}
	var all []*checkedPkg
	for _, p := range slices.Sorted(maps.Keys(tr.pkgs)) {
		c, err := load(p)
		if err != nil {
			return err
		}
		if len(c.files) > 0 {
			all = append(all, c)
		}
		if len(c.src.examples) == 0 {
			continue
		}
		ex := &checkedPkg{src: &srcPkg{path: p + "_test"}, files: c.src.examples, examples: true}
		typecheck(ex)
		for _, e := range doc.Examples(ex.files...) {
			if e.Output != "" || e.EmptyOutput {
				ex.users = append(ex.users, e.Code)
			}
		}
		all = append(all, ex)
	}
	if len(errs) > 0 {
		return errs[0]
	}
	for _, c := range all {
		tr.declare(c)
	}
	tr.resolve(ctx, all)
	return nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// declare records c's package-level declarations and methods, if c is
// fsmoe or under internal/.
func (tr *surfaceTree) declare(c *checkedPkg) {
	public := c.src.path == tr.module+"/fsmoe"
	if c.examples || !public && !strings.HasPrefix(c.src.path, tr.module+"/internal/") {
		return
	}
	short := strings.TrimPrefix(strings.TrimPrefix(c.src.path, tr.module+"/"), "internal/")
	methods := map[string][]ast.Node{} // receiver type name → its method declarations, a type's body too
	for _, f := range c.files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil {
				methods[recvName(fn)] = append(methods[recvName(fn)], fn)
			}
		}
	}
	add := func(id *ast.Ident, key string, group token.Pos, own ...ast.Node) {
		if id.Name == "_" {
			return
		}
		if !group.IsValid() {
			group = id.Pos()
		}
		tr.decls[id.Pos()] = &surfaceDecl{key: key, group: group, own: own,
			pub: public && id.IsExported(), file: tr.fset.Position(id.Pos()).String()}
	}
	for _, f := range c.files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				switch recv := recvName(decl); {
				case recv != "":
					add(decl.Name, short+"."+recv+"."+decl.Name.Name, token.NoPos, decl)
				case decl.Name.Name != "init" && decl.Name.Name != "main":
					add(decl.Name, short+"."+decl.Name.Name, token.NoPos, decl)
				}
			case *ast.GenDecl:
				group := tr.enumeration(c, decl)
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, short+"."+spec.Name.Name, token.NoPos, append([]ast.Node{spec}, methods[spec.Name.Name]...)...)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id, short+"."+id.Name, group, spec)
						}
					}
				}
			}
		}
	}
}

// enumeration returns the position that stands for a const block whose
// every member has one named type, or NoPos.
func (tr *surfaceTree) enumeration(c *checkedPkg, decl *ast.GenDecl) token.Pos {
	if decl.Tok != token.CONST || len(decl.Specs) < 2 {
		return token.NoPos
	}
	var named types.Type
	for _, spec := range decl.Specs {
		for _, id := range spec.(*ast.ValueSpec).Names {
			t, ok := types.Unalias(c.info.Defs[id].Type()).(*types.Named)
			if !ok || (named != nil && !types.Identical(named, t)) {
				return token.NoPos
			}
			named = t
		}
	}
	return decl.Pos()
}

// asmRef matches a package-level symbol an assembly file names.
var asmRef = regexp.MustCompile(`·(\w+)(?:<>)?(?:[+-]\d+)?\(SB\)`)

// resolve marks every declaration that a reference under this context uses.
func (tr *surfaceTree) resolve(ctx *build.Context, all []*checkedPkg) {
	use := func(pos token.Pos) {
		if d := tr.decls[pos]; d != nil {
			tr.used[pos], tr.used[d.group] = true, true
		}
	}
	// ifaces holds, for each interface, its methods that count as used: the
	// ones a reference names, and all of a standard-library one's that a
	// value of an interface type is converted or asserted to.
	ifaces := map[*types.Interface]map[string]bool{}
	useIface := func(it *types.Interface, names ...string) {
		if ifaces[it] == nil {
			ifaces[it] = map[string]bool{}
		}
		for _, name := range names {
			ifaces[it][name] = true
		}
	}
	useIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface), "Error")
	for _, c := range all {
		if !c.examples {
			tr.stdConversions(c, use, useIface)
		}
		for id, obj := range c.info.Uses {
			if c.examples && !within(id, c.users) {
				continue
			}
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
				if recv := o.Signature().Recv(); recv != nil {
					if it, ok := recv.Type().Underlying().(*types.Interface); ok {
						useIface(it, o.Name())
					}
				}
			case *types.Var:
				obj = o.Origin()
			}
			// An exported fsmoe name counts only from outside fsmoe.
			if d := tr.decls[obj.Pos()]; d != nil && !within(id, d.own) && (!d.pub || c.src.path != tr.module+"/fsmoe") {
				use(obj.Pos())
			}
		}
		for _, name := range c.src.asm {
			if ok, _ := ctx.MatchFile(c.src.dir, name); !ok {
				continue
			}
			text, err := os.ReadFile(filepath.Join(c.src.dir, name))
			if err != nil {
				continue
			}
			for _, m := range asmRef.FindAllStringSubmatch(string(text), -1) {
				if obj := c.types.Scope().Lookup(m[1]); obj != nil {
					use(obj.Pos())
				}
			}
		}
	}
	// The interface rule: where a type of the tree implements an interface,
	// the methods its method set resolves that interface's used names to are
	// used, promoted through an embedded field or not.
	for _, c := range all {
		if c.examples {
			continue
		}
		scope := c.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			for it, names := range ifaces {
				t := tn.Type()
				if !types.Implements(t, it) {
					if t = types.NewPointer(t); !types.Implements(t, it) {
						continue
					}
				}
				for name := range names {
					if m, _, _ := types.LookupFieldOrMethod(t, false, tn.Pkg(), name); m != nil {
						use(m.Pos())
					}
				}
			}
		}
	}
	tr.keepNamed(all, use)
}

// stdConversions applies the standard-library interface rule to c's
// files: where a value is converted to an interface the standard library
// declares — assigned, passed as an argument, returned or converted
// explicitly — the methods of the value's type that the interface names are
// used, for the library's code, which this check does not read, may call
// them. A value of an interface type, and a type assertion or type switch
// case, use the interface's methods on every implementer. A conversion to
// an unnamed interface such as any uses nothing.
func (tr *surfaceTree) stdConversions(c *checkedPkg, use func(token.Pos), useIface func(*types.Interface, ...string)) {
	stdIface := func(t types.Type) *types.Interface {
		n, ok := types.Unalias(t).(*types.Named)
		if !ok || n.Obj().Pkg() == nil || tr.pkgs[n.Obj().Pkg().Path()] != nil {
			return nil
		}
		it, _ := n.Underlying().(*types.Interface)
		return it
	}
	all := func(it *types.Interface) {
		for i := range it.NumMethods() {
			useIface(it, it.Method(i).Name())
		}
	}
	conv := func(to types.Type, e ast.Expr) {
		it, from := stdIface(to), c.info.TypeOf(e)
		switch {
		case it == nil || from == nil:
		case types.IsInterface(from):
			all(it)
		default:
			for i := range it.NumMethods() {
				if m, _, _ := types.LookupFieldOrMethod(from, true, c.types, it.Method(i).Name()); m != nil {
					use(m.Pos())
				}
			}
		}
	}
	for _, f := range c.files {
		var stack []ast.Node // the enclosing nodes, innermost last
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
					for i, lhs := range n.Lhs {
						conv(c.info.TypeOf(lhs), n.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if n.Type != nil {
					for _, v := range n.Values {
						conv(c.info.TypeOf(n.Type), v)
					}
				}
			case *ast.CallExpr:
				tv := c.info.Types[n.Fun]
				if tv.IsType() && len(n.Args) == 1 {
					conv(tv.Type, n.Args[0])
				} else if sig, ok := tv.Type.(*types.Signature); ok {
					ps := sig.Params()
					for i, arg := range n.Args {
						switch {
						case sig.Variadic() && i >= ps.Len()-1 && !n.Ellipsis.IsValid():
							conv(ps.At(ps.Len()-1).Type().(*types.Slice).Elem(), arg)
						case i < ps.Len():
							conv(ps.At(i).Type(), arg)
						}
					}
				}
			case *ast.ReturnStmt:
				for i := len(stack) - 1; i >= 0; i-- {
					var fn types.Type
					switch f := stack[i].(type) {
					case *ast.FuncDecl:
						fn = c.info.Defs[f.Name].Type()
					case *ast.FuncLit:
						fn = c.info.TypeOf(f)
					default:
						continue
					}
					if sig, ok := fn.(*types.Signature); ok && sig.Results().Len() == len(n.Results) {
						for j, r := range n.Results {
							conv(sig.Results().At(j).Type(), r)
						}
					}
					break
				}
			case *ast.TypeAssertExpr:
				if n.Type != nil {
					if it := stdIface(c.info.TypeOf(n.Type)); it != nil {
						all(it)
					}
				}
			case *ast.CaseClause:
				for _, e := range n.List {
					if tv := c.info.Types[e]; tv.IsType() {
						if it := stdIface(tv.Type); it != nil {
							all(it)
						}
					}
				}
			}
			stack = append(stack, n)
			return true
		})
	}
}

// keepNamed marks each fsmoe type that a kept exported fsmoe signature or
// field names: the types of kept fsmoe names, the exported fields of the
// structs they reach, the methods of the interfaces they reach, and the
// signatures of the used methods of the named types they reach.
func (tr *surfaceTree) keepNamed(all []*checkedPkg, use func(token.Pos)) {
	var fsmoe *checkedPkg
	for _, c := range all {
		if c.src.path == tr.module+"/fsmoe" && !c.examples {
			fsmoe = c
		}
	}
	if fsmoe == nil {
		return
	}
	reached := map[types.Type]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if t == nil || reached[t] {
			return
		}
		reached[t] = true
		switch t := t.(type) {
		case *types.Alias:
			walk(types.Unalias(t))
		case *types.Named:
			if t.Obj().Pkg() == nil || tr.pkgs[t.Obj().Pkg().Path()] == nil {
				return
			}
			walk(t.Underlying())
			for i := range t.NumMethods() {
				if m := t.Method(i); m.Exported() && tr.used[m.Pos()] {
					walk(m.Type())
				}
			}
		case *types.Struct:
			for i := range t.NumFields() {
				if t.Field(i).Exported() {
					walk(t.Field(i).Type())
				}
			}
		case *types.Interface:
			for i := range t.NumMethods() {
				walk(t.Method(i).Type())
			}
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Tuple:
			for i := range t.Len() {
				walk(t.At(i).Type())
			}
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		}
	}
	scope := fsmoe.types.Scope()
	for _, name := range scope.Names() {
		if obj := scope.Lookup(name); obj.Exported() && tr.used[obj.Pos()] {
			walk(obj.Type())
		}
	}
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok && reached[types.Unalias(tn.Type())] {
			use(tn.Pos())
		}
	}
}

// within reports whether n lies inside one of the nodes.
func within(n ast.Node, nodes []ast.Node) bool {
	for _, o := range nodes {
		if o.Pos() <= n.Pos() && n.End() <= o.End() {
			return true
		}
	}
	return false
}

// violations lists every unused declaration, stale allowlist entry and
// orphan package.
func (tr *surfaceTree) violations() []string {
	var out []string
	declared := map[string]bool{}
	for pos, d := range tr.decls {
		declared[d.key] = true
		used, allowed := tr.used[pos] || tr.used[d.group], tr.allow[d.key] != ""
		switch {
		case !used && !allowed && d.pub:
			out = append(out, d.file+": "+d.key+" is referenced from no program outside fsmoe and no runnable Example, and no kept signature names it: delete it")
		case !used && !allowed:
			out = append(out, d.file+": "+d.key+" has no reference from non-test code: delete it, or move it into a test file")
		case used && allowed:
			out = append(out, d.key+" is referenced from non-test code: drop it from surfaceAllowlist")
		}
	}
	for key := range tr.allow {
		if !declared[key] {
			out = append(out, key+" is in surfaceAllowlist but declared nowhere under internal/")
		}
	}
	imported := map[string]bool{}
	for _, pkg := range tr.pkgs {
		if !pkg.inRoot {
			continue
		}
		for _, f := range pkg.files {
			for _, ip := range f.Imports {
				p := strings.Trim(ip.Path.Value, `"`)
				if pkg.path != p && !strings.HasPrefix(pkg.path, p+"/") {
					imported[p] = true
				}
			}
		}
	}
	for p := range tr.pkgs {
		if strings.HasPrefix(p, tr.module+"/internal/") && !imported[p] {
			out = append(out, "orphan package: "+p+" is imported by no non-test file of the module outside its directory")
		}
	}
	sort.Strings(out)
	return out
}

// recvName is the receiver's type name, without pointer or type parameters.
func recvName(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return ""
	}
	x := fn.Recv.List[0].Type
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
			return ""
		}
	}
}
