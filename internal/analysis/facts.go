package analysis

import (
	"go/ast"
	"go/types"
)

// Facts is the module-wide call graph computed once per Run and handed
// to every analyzer through its Pass. Its nodes are function bodies,
// declarations and literals alike; hotbox derives its taint sets from it.
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
	// Fn is the declared function object; nil for literals.
	Fn *types.Func
	// Body is the function body.
	Body *ast.BlockStmt
	// Pkg is the defining package.
	Pkg *Package
	// Sig is the function's signature (nil only if type checking lost it).
	Sig *types.Signature
	// Lits are the function literals defined directly in this body.
	Lits []*Node
	// Calls are this body's statically resolved call sites, excluding
	// calls inside nested literals (those belong to the child node).
	Calls []CallSite
	// IfaceCalls are the names of interface methods this body invokes.
	IfaceCalls []string
}

// CallSite is one statically resolved call in a body.
type CallSite struct {
	// Call is the call expression.
	Call *ast.CallExpr
	// Fn is the invoked function or method, normalized to its generic
	// origin.
	Fn *types.Func
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

// computeFacts builds the module call graph for the given packages (the
// loader parses no test files).
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
				node := &Node{Body: fd.Body, Pkg: pkg}
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

// collectBody records the node's call sites, interface calls and nested
// literals, stopping at literal boundaries: a literal's interior facts
// belong to its own child node.
func (f *Facts) collectBody(pkg *Package, node *Node) {
	info := pkg.Info
	ast.Inspect(node.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			child := &Node{Body: x.Body, Pkg: pkg}
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
