package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Hotbox guards the allocation-free data path: code reachable from a
// task's compute path (any function or closure taking a
// *executor.TaskContext) measures and routes millions of records, so a
// call to the boxing measurement APIs — rdd.SizeOf, rdd.HashAny,
// rdd.PartitionOf, each taking `any` — costs one heap allocation per
// record. Hot paths must resolve a Sizer/Hasher once per RDD operation
// (SizerFor, PairSizer, HasherFor, NewHashPartitioner) and call the
// specialized value per record. The same table forbids the sort package's
// reflection-based sort.Slice/sort.SliceStable there: a task sorts whole
// partitions, and the generic sorts do it without a reflect-built swapper.
//
// The columnar chunk path adds two more per-record shapes the analyzer
// flags in the same tainted call graphs:
//
//   - an explicit conversion to an interface type inside a loop body
//     (e.g. any(rec) per iteration) — each conversion boxes its operand
//     on the heap, exactly the cost the chunk builders exist to avoid;
//   - a loop whose entire body copies one element between slices,
//     dst = append(dst, src[i]) — chunk columns move by reference or by
//     one bulk append(dst, src...)/copy(dst, src), never element-wise.
//
// The reflection-based sorts have a second entry point: the tiering
// epoch tick, which walks every resident block of every executor between
// stages. Block order is maintained where blocks live (the block
// manager's id index, the heat trackers' ledgers), so nothing in the
// tick's call graph has a reason to sort by id, and what it does sort —
// policy candidates — sorts through slices.SortStableFunc.
//
// The wall-clock harness's TestAllocCeilings (package bench) enforces
// the same invariants dynamically via its allocs/op ceilings; this
// analyzer catches the regression before it runs.
//
// Taint propagates over the shared module call graph with interface
// bridging: an interface-method call taints every same-named concrete
// method, since the hot path reaches Partitioner/Sizer implementations
// through interfaces the static resolver cannot see through.
var Hotbox = &Analyzer{
	Name:     "hotbox",
	Doc:      "forbid boxing calls, reflection-based sorts, in-loop interface boxing and element copy loops in task-compute call graphs, and reflection-based sorts under the tiering tick",
	Severity: SevWarning,
	Init:     func(p *Pass) any { return hotboxTaint{task: hotboxRule.taint(p), tick: tickSortRule.taint(p)} },
	Run:      runHotbox,
}

// hotboxTaint is the analyzer's state: one taint set per entry point.
type hotboxTaint struct{ task, tick map[*Node]bool }

// hotboxRule is the interface-bridged task-compute call graph and the
// boxing calls it must not make.
var hotboxRule = &reachRule{
	entry:  taskEntry,
	exempt: hotboxExempt,
	bridge: true,
	table:  map[string]map[string]string{rddPath: boxingAPI, "sort": reflectSortAPI},
	format: "%s in task-compute code: %s",
}

// tickSortRule is the interface-bridged call graph of the tiering epoch
// tick (policies, trackers and forecasters are all reached through
// interfaces) and the reflection-based sorts it must not make.
var tickSortRule = &reachRule{
	entry:  epochTick,
	exempt: func(*Node) bool { return false },
	bridge: true,
	table:  map[string]map[string]string{"sort": reflectSortAPI},
	format: "%s in the tiering tick's call graph: %s",
}

// epochTick reports whether the node is a tiering epoch tick: the
// function that records a heat.History epoch. In the tree that is
// tiering.Engine.Tick alone.
func epochTick(n *Node) bool {
	for _, cs := range n.Calls {
		if cs.Fn.Name() == "Push" && recvTypeName(cs.Fn) == "History" && funcPkgPath(cs.Fn) == heatPath {
			return true
		}
	}
	return false
}

// boxingAPI maps rdd package-level function name -> advice.
var boxingAPI = map[string]string{
	"SizeOf":      "boxes its argument (one allocation per record); resolve a Sizer once per operation (SizerFor/PairSizer) and call sizer.Of per record",
	"HashAny":     "boxes its argument (one allocation per record); resolve a Hasher once per operation (HasherFor) or call the key's Hash64 directly",
	"PartitionOf": "boxes its argument (one allocation per record); construct the partitioner with NewHashPartitioner so it routes through a resolved Hasher",
}

// reflectSortAPI maps the sort package's reflection-based entry points ->
// advice: they swap through reflectlite.Swapper and, when stable, move
// every record O(log² n) times.
var reflectSortAPI = map[string]string{
	"Slice":       "sorts through reflection; use slices.SortFunc",
	"SliceStable": "sorts through reflection; use rdd's generic stableSort or slices.SortStableFunc",
}

// hotboxExempt exempts the measurement layer itself: TaskContext methods
// and the boxing APIs (and their compositions, like PartitionOf calling
// HashAny), which are the layer hot paths must not call, not consumers
// of it.
func hotboxExempt(n *Node) bool {
	if taskCtxMethod(n) {
		return true
	}
	return n.Fn != nil && funcPkgPath(n.Fn) == rddPath && n.Sig != nil && n.Sig.Recv() == nil &&
		boxingAPI[n.Fn.Name()] != ""
}

func runHotbox(p *Pass) {
	taint := p.State().(hotboxTaint)
	hotboxRule.report(p, taint.task)
	tickSortRule.report(p, taint.tick)
	for _, n := range p.Facts.PkgNodes[p.Pkg] {
		if !taint.task[n] {
			continue
		}
		loops := hbLoopBodies(n.Body)
		hbFlagCopyLoops(p, n.Pkg, loops)
		hbFlagLoopConversions(p, n.Pkg, n.Body, loops)
	}
}

// hbFlagLoopConversions reports explicit interface conversions of
// concrete values inside loop bodies — one allocation per iteration.
// Nested function literals are excluded: they are their own graph nodes.
func hbFlagLoopConversions(p *Pass, pkg *Package, body ast.Node, loops []*ast.BlockStmt) {
	inLoop := func(pos token.Pos) bool {
		for _, b := range loops {
			if b.Pos() <= pos && pos < b.End() {
				return true
			}
		}
		return false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			// The walk starts inside a body block, so any literal seen
			// here is nested and owns its own graph node.
			return false
		case *ast.CallExpr:
			tv, ok := pkg.Info.Types[x.Fun]
			if !ok || !tv.IsType() {
				return true
			}
			// A conversion, not a call: boxing if the target is an
			// interface and the operand is a concrete value. Only the
			// in-loop, per-iteration form is a hot-path bug.
			if types.IsInterface(tv.Type) && len(x.Args) == 1 && inLoop(x.Pos()) {
				if atv, ok := pkg.Info.Types[x.Args[0]]; ok && atv.IsValue() && !types.IsInterface(atv.Type) {
					p.Reportf(x.Pos(), "per-record interface conversion in a loop in task-compute code (one allocation per iteration): hoist the conversion out of the loop or keep the chunk path monomorphic")
				}
			}
		}
		return true
	})
}

// hbLoopBodies returns the body block of every for/range statement in
// this function body. Nested function literals are excluded: their loops
// belong to the child nodes built for them.
func hbLoopBodies(body ast.Node) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			out = append(out, x.Body)
		case *ast.RangeStmt:
			out = append(out, x.Body)
		}
		return true
	})
	return out
}

// hbFlagCopyLoops flags loops whose entire body moves one slice element
// per iteration — dst = append(dst, src[i]) — which a bulk
// append(dst, src...) or copy(dst, src) replaces with a single memmove.
// Conditional appends (filters) and map-indexed collection loops have no
// bulk form and are left alone.
func hbFlagCopyLoops(p *Pass, pkg *Package, loops []*ast.BlockStmt) {
	for _, b := range loops {
		if len(b.List) != 1 {
			continue
		}
		as, ok := b.List[0].(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			continue
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || len(call.Args) != 2 || call.Ellipsis != token.NoPos {
			continue
		}
		fid, ok := call.Fun.(*ast.Ident)
		if !ok || fid.Name != "append" {
			continue
		}
		if _, ok := pkg.Info.Uses[fid].(*types.Builtin); !ok {
			continue
		}
		idx, ok := call.Args[1].(*ast.IndexExpr)
		if !ok {
			continue
		}
		if tv, ok := pkg.Info.Types[idx.X]; ok {
			switch tv.Type.Underlying().(type) {
			case *types.Slice, *types.Array:
			default:
				continue // map/generic index: no bulk copy exists
			}
		} else {
			continue
		}
		dst, ok1 := as.Lhs[0].(*ast.Ident)
		src, ok2 := call.Args[0].(*ast.Ident)
		if !ok1 || !ok2 || dst.Name != src.Name {
			continue
		}
		p.Reportf(as.Pos(), "element-at-a-time copy loop in task-compute code: append(dst, src...) or copy(dst, src) moves the whole column in one step")
	}
}

// reachRule is hotbox's check: no node of the call graph rooted at entry
// — followed without entering exempt nodes, through interfaces too when
// bridge is set — may call a function listed in table.
type reachRule struct {
	entry, exempt func(*Node) bool
	bridge        bool
	// table maps package path -> package-level function name -> advice.
	table map[string]map[string]string
	// format is the diagnostic: the callee as pkg.Name, then the advice.
	format string
}

// taint is the rule's taint set, computed from the shared call graph.
func (r *reachRule) taint(p *Pass) map[*Node]bool { return p.Facts.Reach(r.entry, r.exempt, r.bridge) }

// report reports every forbidden call site in the tainted nodes of p.Pkg.
func (r *reachRule) report(p *Pass, tainted map[*Node]bool) {
	for _, n := range p.Facts.PkgNodes[p.Pkg] {
		if !tainted[n] {
			continue
		}
		for _, cs := range n.Calls {
			if recvTypeName(cs.Fn) != "" {
				continue
			}
			if advice, ok := r.table[funcPkgPath(cs.Fn)][cs.Fn.Name()]; ok {
				p.Reportf(cs.Call.Pos(), r.format, cs.Fn.Pkg().Name()+"."+cs.Fn.Name(), advice)
			}
		}
	}
}

const (
	executorPath = "repro/internal/executor"
	heatPath     = "repro/internal/heat"
	rddPath      = "repro/internal/rdd"
)

// taskEntry reports whether the node starts a task-compute call graph: a
// function or literal with a *executor.TaskContext parameter.
func taskEntry(n *Node) bool { return n.HasParamType(executorPath, "TaskContext") }

// taskCtxMethod reports whether the node is a method of the staging layer
// itself.
func taskCtxMethod(n *Node) bool { return n.IsMethodOf(executorPath, "TaskContext") }
