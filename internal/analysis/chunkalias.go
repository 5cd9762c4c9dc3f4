package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ChunkAlias enforces the columnar chunk shuffle's ownership discipline.
// Since PR 6, map outputs are block-manager-owned chunk sets passed by
// reference across the map/reduce boundary: every reduce task borrows
// the same columns, so correctness rests on three rules nothing in the
// type system expresses:
//
//  1. no retention past task scope — a borrowed rdd.Chunk or
//     *shuffle.ChunkSet must not escape into a struct field, a
//     package-level variable, or a closure that outlives the task (a go
//     statement, or a stored closure);
//  2. no writes through borrowed columns — chunk Keys/Vals columns are
//     windows into a shared backing page; consumers materialize rows at
//     their own output boundary, never mutate in place;
//  3. no use after invalidation — DropShuffle invalidates every chunk
//     set it frees, so a reference obtained before a drop must not be
//     read after it in the same function.
//
// Borrowed references are tracked by an intra-procedural value-flow pass
// over the shared fact base: a value is borrowed when it comes from
// TaskContext.FetchShuffleChunks, the shuffle store's Inputs
// accessor, a ChunkSet's Chunks payload, a module call returning chunks
// (the column-window accessors), or any indexing/slicing/assignment
// chain rooted at one of those. The shuffle package itself (the owner)
// and TaskContext's methods (the staging layer) are exempt.
var ChunkAlias = &Analyzer{
	Name:     "chunkalias",
	Doc:      "forbid chunk-reference escapes, writes through borrowed columns, and reads after DropShuffle",
	Severity: SevError,
	Run:      runChunkAlias,
}

// chunkish reports whether t is rdd.Chunk or shuffle.ChunkSet behind any
// chain of slices and pointers.
func chunkish(t types.Type) bool {
	for {
		switch u := t.(type) {
		case *types.Slice:
			t = u.Elem()
		case *types.Pointer:
			t = u.Elem()
		default:
			return isNamedType(t, rddPath, "Chunk") || isNamedType(t, shufflePath, "ChunkSet")
		}
	}
}

// borrowSources maps package path -> receiver -> the accessor methods
// whose results are borrowed chunk references.
var borrowSources = map[string]map[string]map[string]bool{
	executorPath: {"TaskContext": {"FetchShuffleChunks": true}},
	shufflePath:  {"Store": {"Inputs": true}},
}

func runChunkAlias(p *Pass) {
	if p.Pkg.Path == shufflePath {
		return // the owner: the store's fields are where chunk sets live
	}
	for _, n := range p.Facts.PkgNodes[p.Pkg] {
		if n.Parent != nil {
			continue // literals are scanned under their declaring function
		}
		if taskCtxMethod(n) {
			continue // the staging layer is the sanctioned custodian
		}
		caScanNode(p, n, nil)
	}
}

// caScan is the per-function value-flow state: which local objects hold
// borrowed chunk references (and where they were bound), and which hold
// borrowed column slices.
type caScan struct {
	p        *Pass
	pkg      *Package
	borrowed map[types.Object]token.Pos
	column   map[types.Object]bool
}

// caScanNode analyzes one function body with the borrow facts inherited
// from its enclosing function (closures see their parent's borrows),
// then recurses into nested literals.
func caScanNode(p *Pass, n *Node, inherited *caScan) {
	s := &caScan{p: p, pkg: n.Pkg,
		borrowed: make(map[types.Object]token.Pos),
		column:   make(map[types.Object]bool),
	}
	if inherited != nil {
		for o, pos := range inherited.borrowed {
			s.borrowed[o] = pos
		}
		for o := range inherited.column {
			s.column[o] = true
		}
	}
	s.propagate(n)
	s.check(n)
	for _, lit := range n.Lits {
		caScanNode(p, lit, s)
	}
}

// propagate runs the node's value-flow bindings to a fixed point: an
// object becomes borrowed (or a column) when a borrowed (column)
// expression flows into it. Bindings are in source order; the loop
// handles back edges (a later binding feeding an earlier one inside a
// loop).
func (s *caScan) propagate(n *Node) {
	for {
		changed := false
		for _, b := range n.Bindings {
			if _, ok := s.borrowed[b.Obj]; !ok && s.isBorrowed(b.Rhs) {
				s.borrowed[b.Obj] = b.Pos
				changed = true
			}
			if !s.column[b.Obj] && s.isColumn(b.Rhs) {
				s.column[b.Obj] = true
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// isBorrowed reports whether e evaluates to a borrowed chunk reference.
func (s *caScan) isBorrowed(e ast.Expr) bool {
	info := s.pkg.Info
	switch x := unparen(e).(type) {
	case *ast.Ident:
		obj := objOf(info, x)
		_, ok := s.borrowed[obj]
		return ok
	case *ast.IndexExpr:
		// Element extraction copies value types out of the shared page —
		// the designed materialize-at-the-boundary pattern. Only elements
		// that still reference the page (chunks, chunk sets, slices,
		// pointers) keep the borrow.
		if !s.isBorrowed(x.X) {
			return false
		}
		tv, ok := info.Types[x]
		return ok && sharesBacking(tv.Type)
	case *ast.SliceExpr:
		return s.isBorrowed(x.X)
	case *ast.StarExpr:
		return s.isBorrowed(x.X)
	case *ast.TypeAssertExpr:
		return s.isBorrowed(x.X)
	case *ast.SelectorExpr:
		if s.isChunksPayload(x) || s.isColumnSel(x) {
			return true
		}
		return s.isBorrowed(x.X)
	case *ast.CallExpr:
		if fid, ok := unparen(x.Fun).(*ast.Ident); ok {
			if _, builtin := info.Uses[fid].(*types.Builtin); builtin && fid.Name == "append" {
				for _, arg := range x.Args {
					if s.isBorrowed(arg) {
						return true
					}
				}
				return false
			}
		}
		fn := calleeFunc(info, x)
		if fn == nil {
			return false
		}
		if byRecv, ok := borrowSources[funcPkgPath(fn)]; ok && byRecv[recvTypeName(fn)][fn.Name()] {
			return true
		}
		// A module-internal call returning chunks is a column-window
		// accessor (rdd's fetchChunks and friends): its results are
		// borrowed from the store, not owned by the caller.
		if path := funcPkgPath(fn); path == s.p.ModulePath || (len(path) > len(s.p.ModulePath) && path[:len(s.p.ModulePath)+1] == s.p.ModulePath+"/") {
			if tv, ok := info.Types[x]; ok && resultChunkish(tv.Type) {
				return true
			}
		}
	}
	return false
}

// sharesBacking reports whether a value of type t can still reference
// the chunk's shared backing page after being copied: chunk types
// themselves, and reference types (slices, pointers, maps). Type
// parameters are treated as value types — generic consumers materialize
// records by value at their output boundary, which is the sanctioned
// pattern.
func sharesBacking(t types.Type) bool {
	if _, ok := t.(*types.TypeParam); ok {
		return false
	}
	if chunkish(t) {
		return true
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Pointer, *types.Map:
		return true
	}
	return false
}

// resultChunkish reports whether a call result type carries chunks.
func resultChunkish(t types.Type) bool {
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if chunkish(tup.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return chunkish(t)
}

// isColumn reports whether e evaluates to a chunk column slice (a window
// into the shared backing page).
func (s *caScan) isColumn(e ast.Expr) bool {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		return s.column[objOf(s.pkg.Info, x)]
	case *ast.SliceExpr:
		return s.isColumn(x.X)
	case *ast.SelectorExpr:
		return s.isColumnSel(x)
	}
	return false
}

// isColumnSel reports whether sel is .Keys or .Vals on an rdd.Chunk.
func (s *caScan) isColumnSel(sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "Keys" && sel.Sel.Name != "Vals" {
		return false
	}
	tv, ok := s.pkg.Info.Types[sel.X]
	return ok && isNamedType(tv.Type, rddPath, "Chunk")
}

// isChunksPayload reports whether sel is .Chunks on a shuffle.ChunkSet.
func (s *caScan) isChunksPayload(sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "Chunks" {
		return false
	}
	tv, ok := s.pkg.Info.Types[sel.X]
	return ok && isNamedType(tv.Type, shufflePath, "ChunkSet")
}

// fieldOrGlobal classifies an assignment target: a struct field
// selector, a package-level variable, or an element of either. Returns a
// human description and true when the target outlives the task.
func (s *caScan) fieldOrGlobal(lhs ast.Expr) (string, bool) {
	switch x := unparen(lhs).(type) {
	case *ast.IndexExpr:
		return s.fieldOrGlobal(x.X)
	case *ast.StarExpr:
		return s.fieldOrGlobal(x.X)
	case *ast.SelectorExpr:
		if sel, ok := s.pkg.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			return "struct field " + types.ExprString(x), true
		}
		if v, ok := s.pkg.Info.Uses[x.Sel].(*types.Var); ok && !v.IsField() && v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return "package-level variable " + x.Sel.Name, true // pkg.Var form
		}
	case *ast.Ident:
		if v, ok := objOf(s.pkg.Info, x).(*types.Var); ok && !v.IsField() && v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return "package-level variable " + x.Name, true
		}
	}
	return "", false
}

// check walks one body (literals excluded — they have their own nodes)
// reporting ownership violations.
func (s *caScan) check(n *Node) {
	info := s.pkg.Info
	// First pass: find the earliest DropShuffle call, for rule 3.
	dropPos := token.Pos(0)
	ast.Inspect(n.Body, func(an ast.Node) bool {
		if _, ok := an.(*ast.FuncLit); ok {
			return false
		}
		call, ok := an.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn != nil && funcPkgPath(fn) == shufflePath && recvTypeName(fn) == "Store" && fn.Name() == "DropShuffle" {
			if dropPos == 0 || call.Pos() < dropPos {
				dropPos = call.Pos()
			}
		}
		return true
	})

	reportedUse := make(map[types.Object]bool)
	ast.Inspect(n.Body, func(an ast.Node) bool {
		switch x := an.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			if lit, ok := unparen(x.Call.Fun).(*ast.FuncLit); ok {
				if obj := s.capturedBorrow(lit); obj != nil {
					s.p.Reportf(lit.Pos(), "borrowed chunk reference %s captured by a go-statement closure: the goroutine outlives the task that borrowed it", obj.Name())
				}
			}
		case *ast.IncDecStmt:
			if idx, ok := unparen(x.X).(*ast.IndexExpr); ok && s.isColumn(idx.X) {
				s.p.Reportf(x.Pos(), "write through a borrowed chunk column: chunks cross the map/reduce boundary by reference and must be treated as immutable")
			}
		case *ast.CallExpr:
			if fid, ok := unparen(x.Fun).(*ast.Ident); ok {
				if _, builtin := info.Uses[fid].(*types.Builtin); builtin && len(x.Args) > 0 {
					switch fid.Name {
					case "copy":
						if s.isColumn(x.Args[0]) {
							s.p.Reportf(x.Pos(), "copy into a borrowed chunk column overwrites the shared backing page; materialize into an owned slice instead")
						}
					case "append":
						if s.isColumn(x.Args[0]) {
							s.p.Reportf(x.Pos(), "append to a borrowed chunk column can write the shared backing page in place; build an owned slice instead")
						}
					}
				}
			}
		case *ast.AssignStmt:
			rhsFor := func(i int) ast.Expr {
				if len(x.Rhs) == len(x.Lhs) {
					return x.Rhs[i]
				}
				return x.Rhs[0]
			}
			for i, lhs := range x.Lhs {
				if idx, ok := unparen(lhs).(*ast.IndexExpr); ok && s.isColumn(idx.X) {
					s.p.Reportf(x.Pos(), "write through a borrowed chunk column: chunks cross the map/reduce boundary by reference and must be treated as immutable")
					continue
				}
				if sel, ok := unparen(lhs).(*ast.SelectorExpr); ok && s.isColumnSel(sel) && s.isBorrowed(sel.X) {
					s.p.Reportf(x.Pos(), "write through a borrowed chunk column: chunks cross the map/reduce boundary by reference and must be treated as immutable")
					continue
				}
				if what, escapes := s.fieldOrGlobal(lhs); escapes && s.isBorrowed(rhsFor(i)) {
					s.p.Reportf(x.Pos(), "borrowed chunk reference escapes into %s: chunks are block-manager-owned and valid only within the task that fetched them", what)
					continue
				}
				if lit, ok := unparen(rhsFor(i)).(*ast.FuncLit); ok {
					if _, escapes := s.fieldOrGlobal(lhs); escapes {
						if obj := s.capturedBorrow(lit); obj != nil {
							s.p.Reportf(lit.Pos(), "borrowed chunk reference %s captured by a stored closure: the closure outlives the task that borrowed it", obj.Name())
						}
					}
				}
			}
		case *ast.Ident:
			if dropPos == 0 || x.Pos() <= dropPos {
				return true
			}
			obj := info.Uses[x]
			if obj == nil || reportedUse[obj] {
				return true
			}
			if bindPos, ok := s.borrowed[obj]; ok && bindPos < dropPos {
				reportedUse[obj] = true
				s.p.Reportf(x.Pos(), "borrowed chunk reference %s read after DropShuffle: dropped chunk sets are invalidated and the reference may see freed columns", obj.Name())
			}
		}
		return true
	})
}

// capturedBorrow returns a borrowed object the literal captures from its
// enclosing function (declared before the literal), or nil.
func (s *caScan) capturedBorrow(lit *ast.FuncLit) types.Object {
	var found types.Object
	ast.Inspect(lit.Body, func(an ast.Node) bool {
		if found != nil {
			return false
		}
		id, ok := an.(*ast.Ident)
		if !ok {
			return true
		}
		obj := s.pkg.Info.Uses[id]
		if obj == nil || obj.Pos() >= lit.Pos() {
			return true
		}
		if _, ok := s.borrowed[obj]; ok {
			found = obj
		}
		return false
	})
	return found
}
