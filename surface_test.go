package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowlist names the internal functions and methods that nothing
// outside tests calls yet, each beside the ROADMAP item that starts from it.
// An entry is "pkg.Func" or "pkg.Type.Method", pkg being the package's
// directory under internal/.
var surfaceAllowlist = map[string]string{
	"perfmodel.ProfileFunc":      "ROADMAP, the planner prices this machine: its host profile starts here",
	"moe.GShardGate.AuxBackward": "ROADMAP, a loss on the step path: the aux loss's gradient",
}

// TestSurfaceIsWhatNonTestCodeCalls holds the internal surface to what the
// program uses: every function and method declared in a non-test file under
// internal/ must be referenced from a non-test file of the tree (bench/,
// cmd/, examples/ and fsmoe included) outside its own body, and every
// package under internal/ must be imported by a non-test file of this module
// outside its own directory. A method also counts as referenced when a
// non-test selector or interface names it, or when fsmoe re-exports its
// receiver type: the public types' method sets are the API.
func TestSurfaceIsWhatNonTestCodeCalls(t *testing.T) {
	tree, err := parseTree(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range tree.violations() {
		t.Error(msg)
	}
}

// srcFile is one parsed non-test Go file.
type srcFile struct {
	pkg    string // import path of its directory
	inRoot bool   // in the root module, not a nested one such as bench/
	ast    *ast.File
}

// decl is one function or method declared under internal/.
type decl struct {
	pkg, recv, name string
	fn              *ast.FuncDecl
}

func (d decl) key() string {
	short := strings.TrimPrefix(d.pkg, "repro/internal/")
	if d.recv == "" {
		return short + "." + d.name
	}
	return short + "." + d.recv + "." + d.name
}

type tree struct {
	fset  *token.FileSet
	files []srcFile
}

// parseTree parses every non-test Go file under root, skipping hidden
// directories and testdata. Import paths follow the root module, repro;
// a nested module (bench/) keeps the root's paths for what it imports.
func parseTree(root string) (*tree, error) {
	tr := &tree{fset: token.NewFileSet()}
	modules := map[string]bool{}
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				modules[filepath.ToSlash(p)] = true
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(tr.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		mod := dir
		for mod != "." && !modules[mod] {
			mod = path.Dir(mod)
		}
		tr.files = append(tr.files, srcFile{pkg: path.Join("repro", dir), inRoot: mod == ".", ast: f})
		return nil
	})
	return tr, err
}

// violations lists every unreferenced declaration and orphan package.
func (tr *tree) violations() []string {
	refs := tr.references()
	var out []string
	declared, orphans := map[string]bool{}, map[string]bool{}
	for _, f := range tr.files {
		if !strings.HasPrefix(f.pkg, "repro/internal/") {
			continue
		}
		if !refs.imported[f.pkg] {
			orphans[f.pkg] = true
		}
		for _, d := range f.ast.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "_" || (fn.Recv == nil && (fn.Name.Name == "init" || fn.Name.Name == "main")) {
				continue
			}
			dc := decl{pkg: f.pkg, recv: recvName(fn), name: fn.Name.Name, fn: fn}
			declared[dc.key()] = true
			used, allowed := refs.used(dc), surfaceAllowlist[dc.key()] != ""
			switch {
			case !used && !allowed:
				out = append(out, tr.fset.Position(fn.Pos()).String()+": "+dc.key()+" has no reference from non-test code: delete it, or move it into a test file")
			case used && allowed:
				out = append(out, dc.key()+" is referenced from non-test code: drop it from surfaceAllowlist")
			}
		}
	}
	for key := range surfaceAllowlist {
		if !declared[key] {
			out = append(out, key+" is in surfaceAllowlist but declared nowhere under internal/")
		}
	}
	for pkg := range orphans {
		out = append(out, "orphan package: "+pkg+" is imported by no non-test file of the module outside its directory")
	}
	sort.Strings(out)
	return out
}

// users are the function declarations a name is referenced from; nil stands
// for a reference outside any function (a package-level var, for one).
type users map[*ast.FuncDecl]bool

// outside reports whether some reference lies outside fn's own body.
func (u users) outside(fn *ast.FuncDecl) bool {
	for user := range u {
		if user != fn {
			return true
		}
	}
	return false
}

type refSet struct {
	funcs        map[string]users // "pkgpath.Name": a plain or qualified identifier
	methods      map[string]users // "pkgpath.Name" for any selector in that package, ".Name" for any selector anywhere
	ifaceMethods map[string]bool  // the same keys, for a method named by an interface type
	reexported   map[string]bool  // "pkgpath.Type" aliased by fsmoe
	imported     map[string]bool  // import paths imported by a non-test file of the root module outside their own directory
}

// used reports whether d is referenced outside its own body. A function is
// referenced by its name in its package or qualified by its package's
// import name. A method is referenced by a selector or an interface method
// of its name — anywhere if exported, in its package if not — or, if
// exported, by fsmoe aliasing its receiver type.
func (r *refSet) used(d decl) bool {
	if d.recv == "" {
		return r.funcs[d.pkg+"."+d.name].outside(d.fn)
	}
	scope := d.pkg
	if ast.IsExported(d.name) {
		if r.reexported[d.pkg+"."+d.recv] {
			return true
		}
		scope = ""
	}
	return r.methods[scope+"."+d.name].outside(d.fn) || r.ifaceMethods[scope+"."+d.name]
}

func (r *refSet) add(m map[string]users, key string, fn *ast.FuncDecl) {
	if m[key] == nil {
		m[key] = users{}
	}
	m[key][fn] = true
}

// references collects every name use of the tree's non-test files. It reads
// names, not types: a local variable or another package's method of the
// same name also counts, so it can miss dead code but never reports live
// code as dead.
func (tr *tree) references() *refSet {
	r := &refSet{
		funcs:        map[string]users{},
		methods:      map[string]users{},
		ifaceMethods: map[string]bool{},
		reexported:   map[string]bool{},
		imported:     map[string]bool{},
	}
	for _, f := range tr.files {
		imports := map[string]string{}
		for _, spec := range f.ast.Imports {
			p := strings.Trim(spec.Path.Value, `"`)
			name := path.Base(p)
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = p
			if f.inRoot && f.pkg != p && !strings.HasPrefix(f.pkg, p+"/") {
				r.imported[p] = true
			}
		}
		var fn *ast.FuncDecl // the declaration being walked, nil outside functions
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					// A qualified name, or a method of a local that shadows
					// the import: both count.
					r.add(r.funcs, imports[x.Name]+"."+n.Sel.Name, fn)
				}
				r.add(r.methods, f.pkg+"."+n.Sel.Name, fn)
				r.add(r.methods, "."+n.Sel.Name, fn)
				ast.Inspect(n.X, visit)
				return false
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						r.ifaceMethods[f.pkg+"."+name.Name] = true
						r.ifaceMethods["."+name.Name] = true
					}
				}
			case *ast.TypeSpec:
				if sel, ok := n.Type.(*ast.SelectorExpr); ok && n.Assign.IsValid() && f.pkg == "repro/fsmoe" {
					if x, ok := sel.X.(*ast.Ident); ok {
						r.reexported[imports[x.Name]+"."+sel.Sel.Name] = true
					}
				}
				ast.Inspect(n.Type, visit)
				return false
			case *ast.Field: // parameter and field names are declarations, not uses
				ast.Inspect(n.Type, visit)
				return false
			case *ast.ValueSpec:
				if n.Type != nil {
					ast.Inspect(n.Type, visit)
				}
				for _, v := range n.Values {
					ast.Inspect(v, visit)
				}
				return false
			case *ast.KeyValueExpr: // a struct literal's key is a field name
				if _, ok := n.Key.(*ast.Ident); !ok {
					ast.Inspect(n.Key, visit)
				}
				ast.Inspect(n.Value, visit)
				return false
			case *ast.Ident:
				r.add(r.funcs, f.pkg+"."+n.Name, fn)
			}
			return true
		}
		for _, d := range f.ast.Decls {
			fn, _ = d.(*ast.FuncDecl)
			switch {
			case fn == nil:
				ast.Inspect(d, visit)
			case fn.Body != nil:
				ast.Inspect(fn.Body, visit)
			}
		}
	}
	return r
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
