package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockSafety enforces the engine's concurrency invariants around mutexes:
//
//  1. no sync.Mutex/RWMutex (or value containing one) copied by value —
//     receivers, parameters, plain assignments, range copies, call
//     arguments;
//  2. no channel send while a mutex is held (phase-1 workers blocking on
//     a full channel inside a critical section deadlocks the commit
//     barrier);
//  3. every method of a mutex-carrying struct (telemetry.Registry,
//     trace.Recorder, and anything like them) that touches a sibling
//     field must acquire the mutex first.
var LockSafety = &Analyzer{
	Name:     "locksafety",
	Doc:      "forbid lock copies, sends under lock, and unguarded protected-field access",
	Severity: SevError,
	Run:      runLockSafety,
}

func runLockSafety(p *Pass) {
	pkg := p.Pkg
	protected := protectedStructs(pkg)
	for _, f := range pkg.Files {
		checkLockCopies(p, pkg, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSendUnderLock(p, pkg, fd)
			checkGuardedFields(p, pkg, fd, protected)
		}
	}
}

// --- check 1: lock copies -------------------------------------------------

func checkLockCopies(p *Pass, pkg *Package, f *ast.File) {
	info := pkg.Info
	report := func(pos token.Pos, what string) {
		p.Reportf(pos, "%s copies a value containing a sync.Mutex; use a pointer", what)
	}
	// isCopyRead reports whether e reads an existing addressable value (so
	// using it as a value copies it). Composite literals and calls create
	// fresh values and are fine.
	isCopyRead := func(e ast.Expr) bool {
		switch unparen(e).(type) {
		case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
			return true
		}
		return false
	}
	lockType := func(e ast.Expr) bool {
		tv, ok := info.Types[e]
		return ok && tv.Type != nil && containsLock(tv.Type)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			if x.Recv != nil {
				for _, fld := range x.Recv.List {
					if t := info.Types[fld.Type].Type; t != nil && containsLock(t) {
						report(fld.Pos(), "receiver")
					}
				}
			}
			if x.Type.Params != nil {
				for _, fld := range x.Type.Params.List {
					if t := info.Types[fld.Type].Type; t != nil && containsLock(t) {
						report(fld.Pos(), "parameter")
					}
				}
			}
		case *ast.FuncLit:
			if x.Type.Params != nil {
				for _, fld := range x.Type.Params.List {
					if t := info.Types[fld.Type].Type; t != nil && containsLock(t) {
						report(fld.Pos(), "parameter")
					}
				}
			}
		case *ast.AssignStmt:
			for _, rhs := range x.Rhs {
				if isCopyRead(rhs) && lockType(rhs) {
					report(rhs.Pos(), "assignment")
				}
			}
		case *ast.ValueSpec:
			for _, v := range x.Values {
				if isCopyRead(v) && lockType(v) {
					report(v.Pos(), "declaration")
				}
			}
		case *ast.RangeStmt:
			if x.Value != nil {
				if t := info.Types[x.Value].Type; t != nil && containsLock(t) {
					report(x.Value.Pos(), "range value")
				}
			}
		case *ast.CallExpr:
			for _, arg := range x.Args {
				if isCopyRead(arg) && lockType(arg) {
					report(arg.Pos(), "call argument")
				}
			}
		}
		return true
	})
}

// --- check 2: channel send while a lock is held ---------------------------

type lockEvent struct {
	pos  token.Pos
	kind int // 0 lock, 1 unlock, 2 send
	key  string
}

// checkSendUnderLock approximates each function body as a linear
// statement sequence: a send between x.Lock() and x.Unlock() (or after a
// deferred unlock, which holds until return) is flagged. Nested function
// literals are separate goroutine bodies and are scanned independently.
func checkSendUnderLock(p *Pass, pkg *Package, fd *ast.FuncDecl) {
	var scan func(body ast.Node)
	scan = func(body ast.Node) {
		deferred := make(map[ast.Node]bool)
		var events []lockEvent
		ast.Inspect(body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				if x != body {
					scan(x.Body)
					return false
				}
			case *ast.DeferStmt:
				deferred[x.Call] = true
			case *ast.SendStmt:
				events = append(events, lockEvent{pos: x.Pos(), kind: 2})
			case *ast.CallExpr:
				fn := calleeFunc(pkg.Info, x)
				if fn == nil || funcPkgPath(fn) != "sync" {
					return true
				}
				sel, ok := unparen(x.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				key := types.ExprString(sel.X)
				switch fn.Name() {
				case "Lock", "RLock":
					events = append(events, lockEvent{pos: x.Pos(), kind: 0, key: key})
				case "Unlock", "RUnlock":
					if !deferred[x] {
						events = append(events, lockEvent{pos: x.Pos(), kind: 1, key: key})
					}
				}
			}
			return true
		})
		sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
		var held []string // acquisition order
		for _, ev := range events {
			switch ev.kind {
			case 0:
				held = append(held, ev.key)
			case 1:
				for i := len(held) - 1; i >= 0; i-- {
					if held[i] == ev.key {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
			case 2:
				if len(held) > 0 {
					p.Reportf(ev.pos, "channel send while holding %s: a blocked send inside a critical section can deadlock the stage barrier", held[len(held)-1])
				}
			}
		}
	}
	scan(fd.Body)
}

// --- check 3: unguarded access to mutex-protected fields ------------------

// protectedStruct describes a struct with a by-value mutex field.
type protectedStruct struct {
	named     *types.Named
	mutexName string
}

// protectedStructs finds the package's named struct types that carry a
// sync.Mutex/RWMutex field directly.
func protectedStructs(pkg *Package) []protectedStruct {
	var out []protectedStruct
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if isSyncLock(st.Field(i).Type()) {
				out = append(out, protectedStruct{named: named, mutexName: st.Field(i).Name()})
				break
			}
		}
	}
	return out
}

// checkGuardedFields flags methods of protected structs that read or
// write sibling fields without ever acquiring the struct's mutex in the
// same body. Delegating to an already-locked method is fine (no direct
// field access); so are constructors (not methods).
func checkGuardedFields(p *Pass, pkg *Package, fd *ast.FuncDecl, protected []protectedStruct) {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return
	}
	recvID := fd.Recv.List[0].Names[0]
	recvObj := pkg.Info.Defs[recvID]
	if recvObj == nil {
		return
	}
	var ps *protectedStruct
	if n := baseNamed(recvObj.Type()); n != nil {
		for i := range protected {
			if protected[i].named.Obj() == n.Obj() {
				ps = &protected[i]
				break
			}
		}
	}
	if ps == nil {
		return
	}
	locked := false
	var firstAccess *ast.SelectorExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := unparen(sel.X).(*ast.Ident)
		if !ok || objOf(pkg.Info, id) != recvObj {
			return true
		}
		s, ok := pkg.Info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return true
		}
		if sel.Sel.Name == ps.mutexName {
			locked = true // any touch of the mutex field counts as guarding intent
			return true
		}
		if firstAccess == nil {
			firstAccess = sel
		}
		return true
	})
	if firstAccess != nil && !locked {
		p.Reportf(firstAccess.Pos(), "field %s of mutex-protected %s accessed without acquiring %s",
			firstAccess.Sel.Name, ps.named.Obj().Name(), ps.mutexName)
	}
}
