package analysis

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// Unreached keeps internal/ at what the system calls. A function, method,
// interface method or package-level type, const or var declared under
// internal/ — exported or not — is reported when no shipped code uses
// it: nothing in the library tree, the commands, the examples or the
// nested benchmark/ module names it outside its own declaration (a
// recursive call, a method's receiver and a type's own methods do not
// keep it alive). Uses are resolved by the type checker, so a dead method
// sharing its name with a live one is found, and an instantiated generic
// counts for its origin.
//
// A concrete method nothing calls directly is still live when its
// receiver implements an interface through which it can be called: a
// standard-library one (error, fmt.Stringer, sort.Interface, flag.Value,
// http.Handler ...), or a module interface whose method of that name is
// itself called. A module interface method nothing calls is reported,
// and its implementations with it. A call of interface method I.M made
// inside an implementation of M (a wrapper's M calling its inner I's)
// counts only once that implementation is live, so methods that only
// call each other stay dead.
//
// The loader parses no _test.go files, so a symbol only tests reach is a
// test helper: it belongs in a _test.go file. The use set is only
// complete when the pass holds the whole module, hence WholeModule.
var Unreached = &Analyzer{
	Name:        "unreached",
	Doc:         "report internal/ functions, methods, interface methods, types, consts and vars that no shipped code uses",
	Severity:    SevWarning,
	WholeModule: true,
	Init:        collectUses,
	Run:         runUnreached,
}

// useSet is what the module says about its declarations: the objects some
// shipped code refers to, and every interface type a value could be
// called through — those of the module's expressions, named and literal,
// and the named ones of every package the module imports.
type useSet struct {
	modulePath string
	used       map[types.Object]bool
	ifaces     []*types.Interface
	// implUses are the interface methods each implementation of a method
	// of the same name calls: uses that count once the implementation
	// is live.
	implUses map[*types.Func][]*types.Func
}

// collectUses is Unreached's Init: one walk over every loaded file.
func collectUses(p *Pass) any {
	u := &useSet{modulePath: p.ModulePath, used: make(map[types.Object]bool), implUses: make(map[*types.Func][]*types.Func)}
	seenIface := make(map[*types.Interface]bool)
	addIface := func(t types.Type) {
		if _, isParam := t.(*types.TypeParam); isParam {
			return
		}
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seenIface[it] {
			seenIface[it] = true
			u.ifaces = append(u.ifaces, it)
		}
	}
	addIface(errorType)
	for _, it := range errorsProtocol() {
		addIface(it)
	}
	seenPkg := make(map[*types.Package]bool)
	var addImports func(pkg *types.Package)
	addImports = func(pkg *types.Package) {
		for _, imp := range pkg.Imports() {
			if seenPkg[imp] {
				continue
			}
			seenPkg[imp] = true
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok {
					addIface(tn.Type())
				}
			}
			addImports(imp)
		}
	}
	for _, pkg := range p.Packages {
		info := pkg.Info
		for _, tv := range info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
		addImports(pkg.Types)
		// mark records the uses under n, those of the declaration n belongs
		// to (owners) aside; impl is the method n belongs to, if any, whose
		// calls of its own interface methods wait until it is live.
		mark := func(n ast.Node, impl *types.Func, owners ...types.Object) {
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
					obj := info.Uses[id]
					if fn, ok := obj.(*types.Func); ok {
						fn = fn.Origin() // an instantiation counts for its generic
						obj = fn
						if impl != nil && implementsMethod(impl, fn) {
							u.implUses[impl] = append(u.implUses[impl], fn)
							return true
						}
					}
					if !slices.Contains(owners, obj) {
						u.used[obj] = true
					}
				}
				return true
			})
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					fn, _ := info.Defs[decl.Name].(*types.Func)
					owners := []types.Object{fn}
					var impl *types.Func
					if decl.Recv != nil { // a type's own methods do not keep it alive
						impl = fn
						if named := baseNamed(info.TypeOf(decl.Recv.List[0].Type)); named != nil {
							owners = append(owners, named.Origin().Obj())
						}
					}
					mark(decl.Type, nil, owners...)
					if decl.Body != nil {
						mark(decl.Body, impl, owners...)
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							mark(spec, nil, info.Defs[spec.Name])
						case *ast.ValueSpec:
							var owners []types.Object
							for _, name := range spec.Names {
								owners = append(owners, info.Defs[name])
							}
							mark(spec, nil, owners...)
						}
					}
				}
			}
		}
	}
	// An implementation's calls count once it is live, and they may make
	// another implementation live: repeat until nothing changes.
	for changed := true; changed; {
		changed = false
		for impl, calls := range u.implUses {
			if !u.used[impl] && !u.calledThroughInterface(baseNamed(impl.Type().(*types.Signature).Recv().Type()), impl.Name()) {
				continue
			}
			for _, m := range calls {
				u.used[m] = true
			}
			delete(u.implUses, impl)
			changed = true
		}
	}
	return u
}

// implementsMethod reports whether method impl implements interface
// method m: same name, and impl's receiver type implements m's interface.
func implementsMethod(impl, m *types.Func) bool {
	if impl.Name() != m.Name() {
		return false
	}
	recv := m.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	it, ok := recv.Type().Underlying().(*types.Interface)
	t := baseNamed(impl.Type().(*types.Signature).Recv().Type())
	return ok && t != nil && implements(t, it)
}

// calledThroughInterface reports whether a method named name on t, which
// nothing calls directly, can still be called through an interface t (or
// *t) implements: any interface from outside the module with a method of
// that name, or a module interface whose method of that name is used.
func (u *useSet) calledThroughInterface(t *types.Named, name string) bool {
	for _, it := range u.ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			foreign := m.Pkg() == nil || !strings.HasPrefix(m.Pkg().Path()+"/", u.modulePath+"/")
			if m.Name() == name && (foreign || u.used[m.Origin()]) && it != t.Underlying() && implements(t, it) {
				return true
			}
		}
	}
	return false
}

// implements reports whether t or *t implements it.
func implements(t *types.Named, it *types.Interface) bool {
	ptr := types.NewPointer(t)
	if t.TypeParams().Len() > 0 {
		// Implements is unspecified for an uninstantiated generic: having
		// every method by name is as close as it gets without guessing
		// type arguments.
		mset := types.NewMethodSet(ptr)
		for i := 0; i < it.NumMethods(); i++ {
			if mset.Lookup(it.Method(i).Pkg(), it.Method(i).Name()) == nil {
				return false
			}
		}
		return true
	}
	return types.Implements(t, it) || !types.IsInterface(t) && types.Implements(ptr, it)
}

// errorsProtocol builds the interfaces package errors asserts for: they
// are literals inside its functions, so no imported scope names them.
func errorsProtocol() []types.Type {
	method := func(name string, result types.Type, params ...*types.Var) types.Type {
		sig := types.NewSignatureType(nil, nil, nil, types.NewTuple(params...), types.NewTuple(types.NewVar(0, nil, "", result)), false)
		return types.NewInterfaceType([]*types.Func{types.NewFunc(0, nil, name, sig)}, nil).Complete()
	}
	return []types.Type{
		method("Unwrap", errorType),
		method("Unwrap", types.NewSlice(errorType)),
		method("Is", types.Typ[types.Bool], types.NewVar(0, nil, "", errorType)),
		method("As", types.Typ[types.Bool], types.NewVar(0, nil, "", types.NewInterfaceType(nil, nil))),
	}
}

// runUnreached reports the package-level declarations and methods of
// p.Pkg that are in no use set.
func runUnreached(p *Pass) {
	if !strings.HasPrefix(p.Pkg.Path, p.ModulePath+"/internal/") {
		return
	}
	u := p.State().(*useSet)
	unreached := func(obj types.Object, kind, name string) {
		p.Reportf(obj.Pos(), "%s %s.%s is used by no shipped code (tests do not count): delete it, or move it into a _test.go file", kind, p.Pkg.Types.Name(), name)
	}
	scope := p.Pkg.Types.Scope()
	for _, name := range scope.Names() { // sorted
		obj := scope.Lookup(name)
		tn, isType := obj.(*types.TypeName)
		switch {
		case name == "_" || name == "init":
		case !u.used[obj]: // a type goes with its methods
			kind := "type"
			switch obj.(type) {
			case *types.Func:
				kind = "func"
			case *types.Const:
				kind = "const"
			case *types.Var:
				kind = "var"
			}
			unreached(obj, kind, name)
		case isType && !tn.IsAlias():
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			kind, n, method := "method", named.NumMethods(), named.Method
			if it, ok := named.Underlying().(*types.Interface); ok {
				kind, n, method = "interface method", it.NumExplicitMethods(), it.ExplicitMethod
			}
			for i := 0; i < n; i++ {
				if m := method(i); !u.used[m] && !u.calledThroughInterface(named, m.Name()) {
					unreached(m, kind, name+"."+m.Name())
				}
			}
		}
	}
}
