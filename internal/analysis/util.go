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
