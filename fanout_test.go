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

// goStatementAllowed names the only go statements non-test code may hold.
func goStatementAllowed(path string, g *ast.GoStmt) bool {
	switch path {
	case "internal/par/par.go":
		return true // the one fan-out; everything else calls par.Do
	case "cmd/advisord/main.go":
		// loadgen and smoke serve a loopback listener beside their client;
		// Serve is not n indexed jobs, it returns when the server is closed.
		return types.ExprString(g.Call.Fun) == "srv.Serve"
	}
	return false
}

// TestGoStatementsOnlyInPar keeps the fan-out at one: scheduler, evaluator,
// advisor batch, simlint and loadgen each once carried their own worker
// pool, and they disagreed on what a worker's panic does. A sixth pool
// cannot arrive unnoticed.
func TestGoStatementsOnlyInPar(t *testing.T) {
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(file, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok && !goStatementAllowed(filepath.ToSlash(path), g) {
					t.Errorf("%s: go statement outside internal/par; call par.Do", fset.Position(g.Pos()))
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
