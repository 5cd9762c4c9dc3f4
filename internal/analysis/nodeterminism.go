package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NoDeterminism forbids the three classic ways nondeterminism leaks into
// a simulation that promises bit-identical output:
//
//  1. wall-clock reads (time.Now/Since/Until) — all engine time must come
//     from the virtual clock; progress output goes through the annotated
//     telemetry stopwatch;
//  2. global math/rand functions — they draw from a shared, unseeded
//     source; every random stream must be an explicit rng.New(seed)
//     plumbed from configuration;
//  3. ranging over a map while the iteration order can escape: appending
//     to an outer slice that is never sorted afterwards, accumulating
//     floats (addition order changes the low bits), building strings, or
//     writing formatted output inside the loop.
//
// _test.go files are exempt.
var NoDeterminism = &Analyzer{
	Name:     "nodeterminism",
	Doc:      "forbid wall-clock reads, global math/rand and map-iteration-order leaks",
	Severity: SevError,
	Run:      runNoDeterminism,
}

// wallClockFuncs are the time package functions that read the wall clock.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// seededRandCtors are the math/rand (and v2) package-level functions that
// do NOT touch the global source.
var seededRandCtors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

func runNoDeterminism(p *Pass) {
	pkg := p.Pkg
	for _, f := range pkg.Files {
		checkForbiddenCalls(p, pkg, f)
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkMapRanges(p, pkg, fd.Body)
			}
		}
	}
}

func checkForbiddenCalls(p *Pass, pkg *Package, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pkg.Info, call)
		if fn == nil || recvTypeName(fn) != "" {
			return true
		}
		switch funcPkgPath(fn) {
		case "time":
			if wallClockFuncs[fn.Name()] {
				p.Reportf(call.Pos(), "call to time.%s reads the wall clock; engine time must come from the virtual clock (progress output: telemetry.Stopwatch)", fn.Name())
			}
		case "math/rand", "math/rand/v2":
			if !seededRandCtors[fn.Name()] {
				p.Reportf(call.Pos(), "global rand.%s draws from the shared unseeded source; use rng.New(seed) plumbed from config", fn.Name())
			}
		}
		return true
	})
}

// rangeSink is an append target accumulated inside a map-range loop,
// pending the sorted-afterwards check.
type rangeSink struct {
	obj types.Object
	pos token.Pos
}

// checkMapRanges flags map iterations inside body whose order can escape.
// body is a whole function body so the "sorted later" check can see the
// statements that follow each loop.
func checkMapRanges(p *Pass, pkg *Package, body *ast.BlockStmt) {
	info := pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := info.Types[rs.X]
		if !ok {
			return true
		}
		t := tv.Type
		if ptr, isPtr := t.Underlying().(*types.Pointer); isPtr {
			t = ptr.Elem()
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		sinks := scanMapRangeBody(p, pkg, rs)
		for _, s := range sinks {
			if !sortedAfter(info, body, rs, s.obj) {
				p.Reportf(s.pos, "%s accumulates map iteration order via append and is not sorted afterwards; sort it (or iterate sorted keys)", s.obj.Name())
			}
		}
		return true
	})
}

// scanMapRangeBody reports immediate order leaks (float accumulation,
// string building, formatted output) and returns append targets for the
// sorted-afterwards check.
func scanMapRangeBody(p *Pass, pkg *Package, rs *ast.RangeStmt) []rangeSink {
	info := pkg.Info
	var sinks []rangeSink
	seen := make(map[types.Object]bool)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) != 1 {
				return true
			}
			id, ok := unparen(st.Lhs[0]).(*ast.Ident)
			if !ok {
				return true
			}
			obj := objOf(info, id)
			if obj == nil || obj.Pos() >= rs.Pos() {
				return true // loop-local: order cannot escape
			}
			switch st.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				if b, ok := obj.Type().Underlying().(*types.Basic); ok {
					if b.Info()&types.IsFloat != 0 {
						p.Reportf(st.Pos(), "float accumulation into %s inside map iteration: addition order changes the result bits; iterate sorted keys", id.Name)
					} else if b.Info()&types.IsString != 0 {
						p.Reportf(st.Pos(), "string built from map iteration order into %s; iterate sorted keys", id.Name)
					}
				}
			case token.ASSIGN:
				if call, ok := unparen(st.Rhs[0]).(*ast.CallExpr); ok {
					fid, isIdent := unparen(call.Fun).(*ast.Ident)
					_, isBuiltin := info.Uses[fid].(*types.Builtin)
					if isIdent && fid.Name == "append" && isBuiltin {
						if !seen[obj] {
							seen[obj] = true
							sinks = append(sinks, rangeSink{obj: obj, pos: st.Pos()})
						}
					}
				}
			}
		case *ast.CallExpr:
			fn := calleeFunc(info, st)
			if fn == nil {
				return true
			}
			if funcPkgPath(fn) == "fmt" && recvTypeName(fn) == "" {
				switch fn.Name() {
				case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
					p.Reportf(st.Pos(), "fmt.%s inside map iteration emits in map order; iterate sorted keys", fn.Name())
				}
			}
		}
		return true
	})
	return sinks
}

// sortedAfter reports whether obj is passed to a sort/slices call located
// after the range statement within the same function body.
func sortedAfter(info *types.Info, body *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil {
			return true
		}
		if pp := funcPkgPath(fn); pp != "sort" && pp != "slices" {
			return true
		}
		for _, arg := range call.Args {
			used := false
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && objOf(info, id) == obj {
					used = true
					return false
				}
				return true
			})
			if used {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
