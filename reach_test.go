package repro

import (
	"go/ast"
	"go/token"
	"path"
	"strconv"
	"strings"
	"testing"
)

// reachAllowed names the exported internal/ symbols nothing in the tree
// selects by name and that stay anyway, each with the reason.
var reachAllowed = map[string]string{
	"par.Panic.Unwrap":                 "errors.Is and errors.As call it through the chain, so a typed value a worker threw stays reachable",
	"tiering.Engine.Plans":             "input of ReplayPlan, the reference replay_test.go re-prices a run's migrations with",
	"tiering.Engine.MigrationCounters": "what ReplayPlan's result is compared against",
}

// apiSymbol is one exported declaration under internal/: a package-level
// name, or a method on an exported type.
type apiSymbol struct {
	dir, name string // "internal/heat", "Mover.Budgets"
	pos       token.Position
}

// reachUses is what the rest of the tree says about those declarations,
// name-level: which packages' names are selected through an import or used
// bare at home, and which method names appear behind a dot.
type reachUses struct {
	qualified map[string]bool            // "internal/heat.NewMover"
	selected  map[string]map[string]bool // method name -> who selects it: a package dir for its tests, "" for any other code
}

// collect records one file's uses. Uses in a package's own tests count for
// nothing declared in that package: a symbol only they reach is an API the
// system does not call.
func (u *reachUses) collect(file *ast.File, dir string, isTest bool) {
	imports := map[string]string{} // local name -> internal dir
	for _, imp := range file.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		target, ok := strings.CutPrefix(p, "repro/")
		if !ok || target == dir {
			continue // stdlib, or a foo_test package importing its own foo
		}
		name := path.Base(target)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = target
	}
	home := !isTest && strings.HasPrefix(dir, "internal/")
	var walk func(n ast.Node, declared string)
	walk = func(n ast.Node, declared string) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					u.qualified[imports[x.Name]+"."+n.Sel.Name] = true
					return false
				}
				who := ""
				if isTest {
					who = dir
				}
				if u.selected[n.Sel.Name] == nil {
					u.selected[n.Sel.Name] = map[string]bool{}
				}
				u.selected[n.Sel.Name][who] = true
				walk(n.X, declared)
				return false // Sel is a field or method, not a bare name
			case *ast.Ident:
				if home && n.Name != declared {
					u.qualified[dir+"."+n.Name] = true
				}
			}
			return true
		})
	}
	// A declaration does not keep itself alive: its own name, a recursive
	// call and a method's receiver are not uses.
	for _, decl := range file.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			declared := decl.Name.Name
			if decl.Recv != nil {
				declared = ""
			}
			walk(decl.Type, declared)
			if decl.Body != nil {
				walk(decl.Body, declared)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					if spec.TypeParams != nil {
						walk(spec.TypeParams, spec.Name.Name)
					}
					walk(spec.Type, spec.Name.Name)
				case *ast.ValueSpec:
					if spec.Type != nil {
						walk(spec.Type, "")
					}
					for _, v := range spec.Values {
						walk(v, "")
					}
				}
			}
		}
	}
}

// receiverType names the type a method is declared on.
func receiverType(decl *ast.FuncDecl) string {
	expr := decl.Recv.List[0].Type
	for {
		switch x := expr.(type) {
		case *ast.StarExpr:
			expr = x.X
		case *ast.IndexExpr:
			expr = x.X
		case *ast.IndexListExpr:
			expr = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// TestExportedSymbolsAreReached keeps internal/'s API at what the system
// calls. An exported package-level name is live when another package
// selects it through an import (commands, examples, bench/, the frozen
// benchmark/ module and other packages' tests included) or its own
// non-test files use it; an exported method on an exported type is live
// when its name is selected anywhere but in its own package's tests. What
// is left was written for a caller that never came: wire it into
// something a user can run or delete it with its tests.
func TestExportedSymbolsAreReached(t *testing.T) {
	var declared []apiSymbol
	uses := reachUses{qualified: map[string]bool{}, selected: map[string]map[string]bool{}}
	eachGoFile(t, []string{"."}, func(string) bool { return true }, func(p string, fset *token.FileSet, file *ast.File) {
		dir, isTest := path.Dir(p), strings.HasSuffix(p, "_test.go")
		uses.collect(file, dir, isTest)
		if isTest || !strings.HasPrefix(dir, "internal/") {
			return
		}
		add := func(id *ast.Ident, prefix string) {
			if id.IsExported() {
				declared = append(declared, apiSymbol{dir, prefix + id.Name, fset.Position(id.Pos())})
			}
		}
		for _, decl := range file.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					add(decl.Name, "")
				} else if recv := receiverType(decl); ast.IsExported(recv) {
					add(decl.Name, recv+".")
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, "")
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							add(name, "")
						}
					}
				}
			}
		}
	})

	unused := map[string]bool{}
	for key := range reachAllowed {
		unused[key] = true
	}
	for _, sym := range declared {
		live := uses.qualified[sym.dir+"."+sym.name]
		if _, method, ok := strings.Cut(sym.name, "."); ok {
			for who := range uses.selected[method] {
				live = live || who != sym.dir
			}
		}
		key := strings.TrimPrefix(sym.dir, "internal/") + "." + sym.name
		if _, ok := reachAllowed[key]; ok {
			delete(unused, key)
			if live {
				t.Errorf("%s is reached; drop it from reachAllowed", key)
			}
			continue
		}
		if !live {
			t.Errorf("%s: %s is reached by nothing but its own package's tests", sym.pos, key)
		}
	}
	for key := range unused {
		t.Errorf("reachAllowed names %s, which is not declared", key)
	}
	if len(reachAllowed) > 12 {
		t.Errorf("reachAllowed has %d entries; it is an exception list, not a registry", len(reachAllowed))
	}
}
