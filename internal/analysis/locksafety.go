package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockSafety enforces the engine's concurrency invariants around mutexes
// (a lock copied by value is go vet's copylocks check, not this one):
//
//  1. no channel send while a mutex is held (phase-1 workers blocking on
//     a full channel inside a critical section deadlocks the commit
//     barrier);
//  2. every method of a mutex-carrying struct (telemetry.Registry,
//     trace.Recorder, and anything like them) that touches a sibling
//     field must acquire the mutex first.
var LockSafety = &Analyzer{
	Name:     "locksafety",
	Doc:      "forbid sends under lock and unguarded protected-field access",
	Severity: SevError,
	Run:      runLockSafety,
}

func runLockSafety(p *Pass) {
	pkg := p.Pkg
	protected := protectedStructs(pkg)
	for _, f := range pkg.Files {
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

// --- check 1: channel send while a lock is held ---------------------------

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

// --- check 2: unguarded access to mutex-protected fields ------------------

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
			if t := st.Field(i).Type(); isNamedType(t, "sync", "Mutex") || isNamedType(t, "sync", "RWMutex") {
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
