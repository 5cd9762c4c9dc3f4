package analysis

import (
	"go/ast"
	"go/types"
)

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// calleeFunc resolves a call expression to the function or method object
// it statically invokes, or nil for calls through function values,
// builtins and type conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	case *ast.IndexExpr: // explicit generic instantiation f[T](...)
		if id, ok := unparen(fun.X).(*ast.Ident); ok {
			if f, ok := info.Uses[id].(*types.Func); ok {
				return f
			}
		}
	}
	return nil
}

// funcPkgPath returns the defining package path of f ("" for builtins).
func funcPkgPath(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

// recvTypeName returns the name of the method's receiver's base named
// type, or "" for plain functions.
func recvTypeName(f *types.Func) string {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	if n := baseNamed(sig.Recv().Type()); n != nil {
		return n.Obj().Name()
	}
	return ""
}

// baseNamed returns the named type behind t, looking through one pointer.
func baseNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamedType reports whether t (through one pointer) is the named type
// pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	n := baseNamed(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// isPtrToNamed reports whether t is *pkgPath.name exactly.
func isPtrToNamed(t types.Type, pkgPath, name string) bool {
	p, ok := t.(*types.Pointer)
	return ok && isNamedType(p.Elem(), pkgPath, name)
}

// errorType is the predeclared error interface.
var errorType = types.Universe.Lookup("error").Type()

// returnsError reports whether the signature's last result is error.
func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	if res == nil || res.Len() == 0 {
		return false
	}
	return types.Identical(res.At(res.Len()-1).Type(), errorType)
}

// objOf resolves an identifier to its object via Uses then Defs.
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// reachRule is the check stagedcharge, tierledger and hotbox share: no
// node of the call graph rooted at entry — followed without entering
// exempt nodes, through interfaces too when bridge is set — may call a
// function listed in table.
type reachRule struct {
	entry, exempt func(*Node) bool
	bridge        bool
	// table maps package path -> receiver type ("" for a package-level
	// function) -> name -> advice.
	table map[string]map[string]map[string]string
	// format is the diagnostic: the callee as Recv.Name (pkg.Name for a
	// package-level function), then the advice.
	format string
}

// taint is the rule's taint set, computed from the shared call graph.
func (r *reachRule) taint(p *Pass) map[*Node]bool { return p.Facts.Reach(r.entry, r.exempt, r.bridge) }

// reach is the rule's Analyzer.Init: the taint set, computed once.
func (r *reachRule) reach(p *Pass) any { return r.taint(p) }

// run is the rule's Analyzer.Run, for an analyzer whose state is this
// rule's taint set.
func (r *reachRule) run(p *Pass) { r.report(p, p.State().(map[*Node]bool)) }

// report reports every forbidden call site in the tainted nodes of p.Pkg.
func (r *reachRule) report(p *Pass, tainted map[*Node]bool) {
	for _, n := range p.Facts.PkgNodes[p.Pkg] {
		if !tainted[n] {
			continue
		}
		for _, cs := range n.Calls {
			callee, recv := cs.Fn.Name(), recvTypeName(cs.Fn)
			advice, ok := r.table[funcPkgPath(cs.Fn)][recv][callee]
			if !ok {
				continue
			}
			if recv != "" {
				callee = recv + "." + callee
			} else {
				callee = cs.Fn.Pkg().Name() + "." + callee
			}
			p.Reportf(cs.Call.Pos(), r.format, callee, advice)
		}
	}
}
