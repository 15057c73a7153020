package lint

// The loader is a minimal, module-aware replacement for
// golang.org/x/tools/go/packages, built on the stdlib alone. It discovers
// the module root (go.mod), maps module-internal import paths to
// directories, parses each package's non-test files and type-checks them
// with go/types. Module-internal imports are resolved recursively through
// the loader itself; everything else (the standard library) goes through
// the "source" compiler importer, which type-checks GOROOT sources and
// therefore works offline. Test files (_test.go) are not analyzed: the
// rules protect production aggregation and execution paths, and fixtures
// legitimately assert on raw literals. Files excluded by a build
// constraint or a _GOOS/_GOARCH suffix on this platform are skipped the
// way the compiler skips them (go/build's default context), so a package
// with per-architecture twins — internal/tensor's GEMM kernels — loads as
// the one the build compiles.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	Path      string // import path
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File // non-test files, sorted by file name
	Filenames []string    // absolute names parallel to Files
	Types     *types.Package
	Info      *types.Info
	// TypeErrors collects type-checker complaints. The analyzers run
	// best-effort on partial type information, but callers gating a build
	// should treat these as fatal.
	TypeErrors []error
}

// Loader loads and caches the module's packages.
type Loader struct {
	Fset    *token.FileSet
	ModRoot string
	ModPath string

	std     types.Importer
	pkgs    map[string]*Package // by import path
	loading map[string]bool     // import-cycle guard
}

// NewLoader locates the enclosing module of dir (walking up to the go.mod)
// and returns a loader rooted there.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		ModRoot: root,
		ModPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// modulePath extracts the module path from a go.mod.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			p = strings.Trim(p, `"`)
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Load expands the patterns ("./...", "./internal/...", or plain package
// directories, all relative to the module root or absolute) and loads each
// matched package. Directories without non-test Go files are skipped.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "." || pat == "" {
				pat = l.ModRoot
			}
		}
		if !filepath.IsAbs(pat) {
			pat = filepath.Join(l.ModRoot, pat)
		}
		if !recursive {
			add(pat)
			continue
		}
		err := filepath.WalkDir(pat, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != pat && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	var out []*Package
	for _, dir := range dirs {
		hasGo, err := dirHasGoFiles(dir)
		if err != nil {
			return nil, err
		}
		if !hasGo {
			continue
		}
		p, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func dirHasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		if !e.IsDir() && analyzableFile(e.Name()) {
			return true, nil
		}
	}
	return false, nil
}

func analyzableFile(name string) bool {
	return strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_")
}

// LoadDir loads the package in one directory, type-checking it (and,
// transitively, its module-internal imports).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.ModRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("lint: %s is outside module %s", dir, l.ModRoot)
	}
	path := l.ModPath
	if rel != "." {
		path = l.ModPath + "/" + filepath.ToSlash(rel)
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !analyzableFile(e.Name()) {
			continue
		}
		match, err := build.Default.MatchFile(abs, e.Name())
		if err != nil {
			return nil, fmt.Errorf("lint: build constraints of %s: %w", filepath.Join(abs, e.Name()), err)
		}
		if match {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", abs)
	}
	p := &Package{Path: path, Dir: abs, Fset: l.Fset}
	for _, name := range names {
		full := filepath.Join(abs, name)
		f, err := parser.ParseFile(l.Fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.Files = append(p.Files, f)
		p.Filenames = append(p.Filenames, full)
	}
	p.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { p.TypeErrors = append(p.TypeErrors, err) },
	}
	p.Types, _ = conf.Check(path, l.Fset, p.Files, p.Info)
	l.pkgs[path] = p
	return p, nil
}

// Import implements types.Importer: module-internal paths load through the
// loader, everything else through the GOROOT source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
		p, err := l.LoadDir(filepath.Join(l.ModRoot, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		if len(p.TypeErrors) > 0 {
			return nil, fmt.Errorf("lint: %s: %w", path, p.TypeErrors[0])
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}
