package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrFlow flags module-internal error-returning calls whose error is
// silently dropped. The MustRun removal made every harness entry point
// return its error; a discarded one turns a failed run into a silently
// missing report cell. Three shapes are flagged:
//
//  1. a bare statement: `hibench.Run(spec)` instead of
//     `res, err := hibench.Run(spec)`;
//  2. an all-blank assignment: `_ = ctx.Run(...)` — for stdlib calls the
//     explicit blank reads as intentional, but module APIs return errors
//     precisely so callers act on them;
//  3. a direct defer: `defer eng.Close()` — the deferred error vanishes
//     at function exit; wrap it in a closure that handles the error.
//
// Stdlib calls are out of scope (dropping fmt.Fprintf's error is
// idiomatic), as are `v, _ :=` assignments that keep a result (the
// partial blank reads as a deliberate choice about that result) and go
// statements (the error dies with the goroutine either way and flagging
// them would push people toward silent wrappers).
var ErrFlow = &Analyzer{
	Name:     "errflow",
	Doc:      "forbid discarding errors from module-internal APIs (bare statements, _ = assigns, direct defers)",
	Severity: SevWarning,
	Run:      runErrFlow,
}

func runErrFlow(p *Pass) {
	pkg := p.Pkg
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				if name, ok := moduleErrCall(p, pkg, unparen(stmt.X)); ok {
					p.Reportf(stmt.Pos(), "error from %s is discarded; handle it or assign it explicitly", name)
				}
			case *ast.AssignStmt:
				for _, lhs := range stmt.Lhs {
					if id, ok := unparen(lhs).(*ast.Ident); !ok || id.Name != "_" {
						return true
					}
				}
				if len(stmt.Rhs) != 1 {
					return true
				}
				if name, ok := moduleErrCall(p, pkg, unparen(stmt.Rhs[0])); ok {
					p.Reportf(stmt.Pos(), "error from %s is blanked away; module APIs return errors so callers can act on them", name)
				}
			case *ast.DeferStmt:
				if name, ok := moduleErrCall(p, pkg, stmt.Call); ok {
					p.Reportf(stmt.Pos(), "deferred %s drops its error at function exit; defer a closure that handles it", name)
				}
			}
			return true
		})
	}
}

// moduleErrCall reports whether e is a call to a module-internal API
// whose last result is error, returning its pkg-qualified name.
func moduleErrCall(p *Pass, pkg *Package, e ast.Expr) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	fn := calleeFunc(pkg.Info, call)
	if fn == nil {
		return "", false
	}
	path := funcPkgPath(fn)
	if path != p.ModulePath && !strings.HasPrefix(path, p.ModulePath+"/") {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || !returnsError(sig) {
		return "", false
	}
	name := fn.Name()
	if recv := recvTypeName(fn); recv != "" {
		name = recv + "." + name
	}
	return shortPkg(path) + "." + name, true
}

// shortPkg returns the last path element ("repro/internal/hibench" ->
// "hibench").
func shortPkg(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
