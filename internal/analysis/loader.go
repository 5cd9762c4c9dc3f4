// Package analysis implements simlint: a project-specific static
// analysis suite that machine-checks the engine's determinism and
// concurrency invariants. The two-phase scheduler promises bit-identical
// virtual time at any worker count; that guarantee is only as strong as
// the absence of wall-clock reads, global-rand draws, map-iteration-order
// leaks, staging bypasses and lock misuse anywhere in the engine — which
// is exactly what these analyzers enforce.
//
// The package is built only on the standard library (go/parser, go/ast,
// go/types and go/importer's source importer); it deliberately avoids
// golang.org/x/tools so the linter needs nothing beyond the toolchain.
package analysis

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

// Package is one parsed, type-checked package of the module.
type Package struct {
	// Path is the import path ("repro/internal/memsim").
	Path string
	// Dir is the absolute directory the files were read from.
	Dir string
	// Files are the parsed non-test sources, in file-name order.
	Files []*ast.File
	// Types and Info carry the go/types results.
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of the enclosing module. Module
// packages are resolved against the module root; standard-library imports
// are type-checked from GOROOT source via go/importer's source importer,
// so the loader works with nothing but the toolchain installed.
type Loader struct {
	fset    *token.FileSet
	root    string // module root directory (holds go.mod)
	modpath string // module path from go.mod
	std     types.Importer
	pkgs    map[string]*Package // by import path
	loading map[string]bool     // import-cycle guard
}

// NewLoader locates the module containing start (a directory) and returns
// a loader for it.
func NewLoader(start string) (*Loader, error) {
	abs, err := filepath.Abs(start)
	if err != nil {
		return nil, err
	}
	root, modpath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		fset:    fset,
		root:    root,
		modpath: modpath,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// Fset returns the loader's shared file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// ModulePath returns the module path from go.mod.
func (l *Loader) ModulePath() string { return l.modpath }

// findModule walks up from dir to the first go.mod and parses its module
// path.
func findModule(dir string) (root, modpath string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// Load resolves the given patterns to package directories and returns the
// type-checked packages sorted by import path. Supported patterns: a
// directory path, or a "dir/..." subtree (testdata directories are only
// visited when named explicitly).
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	var out []*Package
	seen := make(map[string]bool)
	for _, pat := range patterns {
		base, tree := strings.CutSuffix(pat, "/...")
		abs, err := filepath.Abs(base)
		if err != nil {
			return nil, err
		}
		if pat == "./..." || pat == "..." {
			abs, tree = l.root, true // the whole module, wherever the loader was started
		}
		dirs := []string{abs}
		if tree {
			if dirs, err = packageDirs(abs); err != nil {
				return nil, err
			}
		}
		for _, dir := range dirs {
			if seen[dir] {
				continue
			}
			seen[dir] = true
			pkg, err := l.loadDir(dir)
			if err != nil {
				return nil, err
			}
			if pkg != nil {
				out = append(out, pkg)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// packageDirs collects the package directories under base — those with a
// non-test Go file — skipping testdata, hidden and _-prefixed directories.
// It is what a "base/..." pattern resolves to.
func packageDirs(base string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && isSourceName(e.Name()) {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	return dirs, err
}

// holdsModule reports whether pkgs are a whole-module pass: one with a
// package for every directory ./... resolves to from the module root.
func holdsModule(modulePath string, pkgs []*Package) bool {
	if len(pkgs) == 0 {
		return false
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(pkgs[0].Path, modulePath), "/")
	root := filepath.Clean(strings.TrimSuffix(pkgs[0].Dir, filepath.FromSlash(rel)))
	held := make(map[string]bool, len(pkgs))
	for _, pkg := range pkgs {
		held[pkg.Dir] = true
	}
	dirs, err := packageDirs(root)
	if err != nil {
		return false
	}
	for _, dir := range dirs {
		if !held[dir] {
			return false
		}
	}
	return true
}

func isSourceName(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_")
}

// importPathFor maps an absolute directory inside the module to its
// import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, l.root)
	}
	if rel == "." {
		return l.modpath, nil
	}
	return l.modpath + "/" + filepath.ToSlash(rel), nil
}

// dirForImport maps a module import path back to its directory.
func (l *Loader) dirForImport(path string) string {
	if path == l.modpath {
		return l.root
	}
	return filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.modpath+"/")))
}

// inModule reports whether the import path belongs to this module.
func (l *Loader) inModule(path string) bool {
	return path == l.modpath || strings.HasPrefix(path, l.modpath+"/")
}

// Import implements types.Importer: module packages are loaded from the
// module tree, everything else is delegated to the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.inModule(path) {
		pkg, err := l.loadDir(l.dirForImport(path))
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("analysis: no Go files in %s", path)
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// loadDir parses and type-checks the package in dir (cached). A directory
// with no non-test Go files yields (nil, nil).
func (l *Loader) loadDir(dir string) (*Package, error) {
	imp, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.pkgs[imp]; ok {
		return pkg, nil
	}
	if l.loading[imp] {
		return nil, fmt.Errorf("analysis: import cycle through %s", imp)
	}
	l.loading[imp] = true
	defer delete(l.loading, imp)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && isSourceName(e.Name()) {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, nil
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		// What the go tool would compile here: //go:build ignore and
		// foreign-platform files (by constraint or file name) are skipped.
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(imp, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", imp, err)
	}
	pkg := &Package{Path: imp, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[imp] = pkg
	return pkg, nil
}
