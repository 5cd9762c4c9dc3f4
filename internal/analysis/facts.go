package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Facts is the shared dataflow fact base computed once per Run and handed
// to every analyzer through its Pass: a module-wide call graph whose
// nodes are function bodies (declarations and literals), plus the
// intra-procedural value-flow bindings each body establishes. Analyzers
// that used to rebuild private call graphs (hotbox, stagedcharge) and the
// ownership/ledger analyzers (chunkalias, tierledger) all derive their
// taint sets from this one structure, so the module's ASTs are walked for
// graph facts exactly once however many analyzers run.
type Facts struct {
	// Nodes are all function bodies in deterministic (package, file,
	// position) order.
	Nodes []*Node
	// ByFunc maps a declared function/method object to its node.
	ByFunc map[*types.Func]*Node
	// PkgNodes groups nodes by their defining package, in Nodes order.
	PkgNodes map[*Package][]*Node
	// MethodsByName indexes concrete method declarations by method name:
	// the bridge an analyzer uses to propagate taint through interface
	// calls it cannot statically resolve.
	MethodsByName map[string][]*Node
}

// Node is one function body — a declaration or a function literal — in
// the module call graph.
type Node struct {
	// Name is the declared name, with ".func" appended per literal
	// nesting level.
	Name string
	// Fn is the declared function object; nil for literals.
	Fn *types.Func
	// Decl is the declaration; nil for literals.
	Decl *ast.FuncDecl
	// Lit is the literal; nil for declarations.
	Lit *ast.FuncLit
	// Body is the function body.
	Body *ast.BlockStmt
	// Pkg is the defining package.
	Pkg *Package
	// Sig is the function's signature (nil only if type checking lost it).
	Sig *types.Signature
	// Parent is the enclosing body for literals; nil for declarations.
	Parent *Node
	// Lits are the function literals defined directly in this body.
	Lits []*Node
	// Calls are this body's statically resolved call sites, excluding
	// calls inside nested literals (those belong to the child node).
	Calls []CallSite
	// IfaceCalls are the names of interface methods this body invokes.
	IfaceCalls []string
	// Bindings are the body's value-flow assignments: object <- expression
	// edges from assignments, declarations and range statements, in source
	// order. They let an analyzer run an intra-procedural taint pass
	// without re-walking the AST.
	Bindings []Binding
}

// CallSite is one statically resolved call in a body.
type CallSite struct {
	// Call is the call expression.
	Call *ast.CallExpr
	// Fn is the invoked function or method, normalized to its generic
	// origin.
	Fn *types.Func
}

// Binding is one value-flow edge: Obj receives (part of) the value of
// Rhs. For range statements Rhs is the ranged-over expression, so taint
// through element extraction propagates like indexing.
type Binding struct {
	// Obj is the bound variable.
	Obj types.Object
	// Rhs is the source expression.
	Rhs ast.Expr
	// Pos is the binding's position.
	Pos token.Pos
}

// IsMethodOf reports whether the node is a declared method whose receiver
// base type is pkgPath.typeName.
func (n *Node) IsMethodOf(pkgPath, typeName string) bool {
	if n.Fn == nil || n.Sig == nil || n.Sig.Recv() == nil {
		return false
	}
	return isNamedType(n.Sig.Recv().Type(), pkgPath, typeName)
}

// HasParamType reports whether any parameter of the node's signature is
// *pkgPath.typeName.
func (n *Node) HasParamType(pkgPath, typeName string) bool {
	if n.Sig == nil {
		return false
	}
	params := n.Sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isPtrToNamed(params.At(i).Type(), pkgPath, typeName) {
			return true
		}
	}
	return false
}

// computeFacts builds the module call graph and value-flow bindings for
// the given packages (the loader parses no test files).
func computeFacts(pkgs []*Package) *Facts {
	f := &Facts{
		ByFunc:        make(map[*types.Func]*Node),
		PkgNodes:      make(map[*Package][]*Node),
		MethodsByName: make(map[string][]*Node),
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				node := &Node{Name: fd.Name.Name, Decl: fd, Body: fd.Body, Pkg: pkg}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					node.Fn = obj
					node.Sig, _ = obj.Type().(*types.Signature)
					f.ByFunc[obj] = node
					if node.Sig != nil && node.Sig.Recv() != nil {
						f.MethodsByName[fd.Name.Name] = append(f.MethodsByName[fd.Name.Name], node)
					}
				}
				f.collectBody(pkg, node)
				f.add(pkg, node)
			}
		}
	}
	return f
}

func (f *Facts) add(pkg *Package, node *Node) {
	f.Nodes = append(f.Nodes, node)
	f.PkgNodes[pkg] = append(f.PkgNodes[pkg], node)
}

// collectBody records the node's call sites, interface calls, bindings
// and nested literals, stopping at literal boundaries: a literal's
// interior facts belong to its own child node.
func (f *Facts) collectBody(pkg *Package, node *Node) {
	info := pkg.Info
	ast.Inspect(node.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			child := &Node{Name: node.Name + ".func", Lit: x, Body: x.Body, Pkg: pkg, Parent: node}
			if sig, ok := info.Types[x].Type.(*types.Signature); ok {
				child.Sig = sig
			}
			f.collectBody(pkg, child)
			node.Lits = append(node.Lits, child)
			f.add(pkg, child)
			return false
		case *ast.CallExpr:
			if tv, ok := info.Types[x.Fun]; ok && tv.IsType() {
				return true // conversion, not a call
			}
			fn := calleeFunc(info, x)
			if fn == nil {
				return true
			}
			fn = fn.Origin()
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
				node.IfaceCalls = append(node.IfaceCalls, fn.Name())
				return true
			}
			node.Calls = append(node.Calls, CallSite{Call: x, Fn: fn})
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i, lhs := range x.Lhs {
					if id, ok := unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
						if obj := objOf(info, id); obj != nil {
							node.Bindings = append(node.Bindings, Binding{Obj: obj, Rhs: x.Rhs[i], Pos: x.Pos()})
						}
					}
				}
			} else if len(x.Rhs) == 1 {
				for _, lhs := range x.Lhs {
					if id, ok := unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
						if obj := objOf(info, id); obj != nil {
							node.Bindings = append(node.Bindings, Binding{Obj: obj, Rhs: x.Rhs[0], Pos: x.Pos()})
						}
					}
				}
			}
		case *ast.ValueSpec:
			if len(x.Names) == len(x.Values) {
				for i, name := range x.Names {
					if obj := info.Defs[name]; obj != nil {
						node.Bindings = append(node.Bindings, Binding{Obj: obj, Rhs: x.Values[i], Pos: x.Pos()})
					}
				}
			} else if len(x.Values) == 1 {
				for _, name := range x.Names {
					if obj := info.Defs[name]; obj != nil {
						node.Bindings = append(node.Bindings, Binding{Obj: obj, Rhs: x.Values[0], Pos: x.Pos()})
					}
				}
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{x.Key, x.Value} {
				if e == nil {
					continue
				}
				if id, ok := unparen(e).(*ast.Ident); ok && id.Name != "_" {
					if obj := objOf(info, id); obj != nil {
						node.Bindings = append(node.Bindings, Binding{Obj: obj, Rhs: x.X, Pos: x.Pos()})
					}
				}
			}
		}
		return true
	})
}

// Reach computes the taint set: every node reachable from a node
// satisfying entry, following static calls and literal containment,
// never entering nodes that satisfy exempt. When bridgeIfaces is set,
// an interface-method call taints every same-named concrete method
// declaration — the over-approximation hot-path analyzers need because
// task code reaches Sizer/Partitioner implementations through interfaces
// the static resolver cannot see through.
func (f *Facts) Reach(entry, exempt func(*Node) bool, bridgeIfaces bool) map[*Node]bool {
	tainted := make(map[*Node]bool)
	var work []*Node
	for _, n := range f.Nodes {
		if entry(n) && !exempt(n) {
			work = append(work, n)
		}
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		if tainted[n] || exempt(n) {
			continue
		}
		tainted[n] = true
		for _, cs := range n.Calls {
			if cn, ok := f.ByFunc[cs.Fn]; ok && !tainted[cn] && !exempt(cn) {
				work = append(work, cn)
			}
		}
		if bridgeIfaces {
			for _, name := range n.IfaceCalls {
				for _, m := range f.MethodsByName[name] {
					if !tainted[m] && !exempt(m) {
						work = append(work, m)
					}
				}
			}
		}
		for _, lit := range n.Lits {
			if !tainted[lit] {
				work = append(work, lit)
			}
		}
	}
	return tainted
}
