package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// eachSourceFile parses every non-test Go file under roots and hands it
// to visit under its slash-separated path; testdata and hidden
// directories (build and cache output) are skipped.
func eachSourceFile(t *testing.T, roots []string, visit func(path string, fset *token.FileSet, file *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && (d.Name() == "testdata" || len(d.Name()) > 1 && d.Name()[0] == '.') {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			visit(filepath.ToSlash(path), fset, file)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestGoStatementsOnlyInPar keeps the fan-out at one: scheduler, evaluator,
// advisor batch, simlint and advisord's load generator each once carried
// their own worker pool, and they disagreed on what a worker's panic does.
// A sixth pool cannot arrive unnoticed.
func TestGoStatementsOnlyInPar(t *testing.T) {
	eachSourceFile(t, []string{"internal", "cmd", "bench"}, func(path string, fset *token.FileSet, file *ast.File) {
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok && path != "internal/par/par.go" {
				t.Errorf("%s: go statement outside internal/par; call par.Do", fset.Position(g.Pos()))
			}
			return true
		})
	})
}

// basicVar reports whether the i-th name of a var spec is declared with a
// predeclared basic type, or untyped from a literal.
func basicVar(spec *ast.ValueSpec, i int) bool {
	if id, ok := spec.Type.(*ast.Ident); ok {
		tn, _ := types.Universe.Lookup(id.Name).(*types.TypeName)
		if tn == nil {
			return false
		}
		_, basic := tn.Type().(*types.Basic) // int, bool, string ...; not error or any
		return basic
	}
	if spec.Type != nil || i >= len(spec.Values) {
		return false
	}
	v := spec.Values[i]
	if u, ok := v.(*ast.UnaryExpr); ok {
		v = u.X
	}
	if id, ok := v.(*ast.Ident); ok {
		return id.Name == "true" || id.Name == "false"
	}
	_, lit := v.(*ast.BasicLit)
	return lit
}

// TestNoExportedMutableKnobs keeps configuration on values: an exported
// package-level var of basic type under internal/ is a knob any package
// can turn for every other one (cluster.DefaultTaskParallelism was the
// last, "set it only from a single goroutine"). A setting is a Conf field
// or a constant.
func TestNoExportedMutableKnobs(t *testing.T) {
	eachSourceFile(t, []string{"internal"}, func(path string, fset *token.FileSet, file *ast.File) {
		for _, decl := range file.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok || gen.Tok != token.VAR {
				continue
			}
			for _, s := range gen.Specs {
				spec := s.(*ast.ValueSpec)
				for i, name := range spec.Names {
					if name.IsExported() && basicVar(spec, i) {
						t.Errorf("%s: exported mutable package-level var %s; make it a Conf field or a constant", fset.Position(name.Pos()), name.Name)
					}
				}
			}
		}
	})
}
