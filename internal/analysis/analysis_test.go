package analysis

import (
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// loadTestdata loads every package under testdata/src with one shared
// loader — a fixture with a go.mod of its own is a module instead, loaded
// whole by its own loader — and returns the base directory and resulting
// diagnostics grouped by top-level fixture directory.
func loadTestdata(t *testing.T) (base string, byDir map[string][]string, dirs []string) {
	t.Helper()
	base, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(base)
	if err != nil {
		t.Fatal(err)
	}
	var patterns, modules []string
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		dirs = append(dirs, e.Name())
		if _, err := os.Stat(filepath.Join(base, e.Name(), "go.mod")); err == nil {
			modules = append(modules, filepath.Join(base, e.Name()))
		} else {
			patterns = append(patterns, filepath.Join(base, e.Name()))
		}
	}
	sort.Strings(dirs)
	ld, err := NewLoader(base)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := ld.Load(patterns...)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != len(patterns) {
		t.Fatalf("loaded %d packages, want %d", len(pkgs), len(patterns))
	}
	diags := Run(ld.ModulePath(), ld.Fset(), pkgs, All())
	for _, root := range modules {
		ld, err := NewLoader(root)
		if err != nil {
			t.Fatal(err)
		}
		pkgs, err := ld.Load("./...")
		if err != nil {
			t.Fatal(err)
		}
		diags = append(diags, Run(ld.ModulePath(), ld.Fset(), pkgs, All())...)
	}
	byDir = make(map[string][]string)
	for _, d := range diags {
		rel, err := filepath.Rel(base, d.Pos.Filename)
		if err != nil {
			t.Fatalf("diagnostic outside testdata: %s", d)
		}
		top := strings.SplitN(filepath.ToSlash(rel), "/", 2)[0]
		byDir[top] = append(byDir[top], d.StringRel(base))
	}
	return base, byDir, dirs
}

// TestGoldenDiagnostics pins the exact diagnostics (file, line, analyzer,
// message) each known-bad testdata package must produce — including the
// suppression-directive behavior in testdata/src/suppress.
func TestGoldenDiagnostics(t *testing.T) {
	base, byDir, dirs := loadTestdata(t)
	for _, dir := range dirs {
		t.Run(dir, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join(base, dir, dir+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			got := ""
			if lines := byDir[dir]; len(lines) > 0 {
				got = strings.Join(lines, "\n") + "\n"
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestSuppressionDirectives spot-checks that the suppress package's clean
// functions produced no findings: every surviving diagnostic there must
// sit in one of the deliberately unsuppressed functions.
func TestSuppressionDirectives(t *testing.T) {
	_, byDir, _ := loadTestdata(t)
	for _, line := range byDir["suppress"] {
		n := lineNumber(t, line)
		if n < 28 {
			t.Errorf("finding in the suppressed region (line %d): %s", n, line)
		}
	}
	if len(byDir["suppress"]) == 0 {
		t.Fatal("the unsuppressed fixtures produced no findings")
	}
}

func lineNumber(t *testing.T, diag string) int {
	t.Helper()
	parts := strings.SplitN(diag, ":", 3)
	if len(parts) < 3 {
		t.Fatalf("malformed diagnostic %q", diag)
	}
	n := 0
	for _, c := range parts[1] {
		n = n*10 + int(c-'0')
	}
	return n
}

// moduleLoad is the whole module as ./... resolves it from here.
type moduleLoad struct {
	ld   *Loader
	pkgs []*Package
}

// loadModule type-checks the module once per test binary: every test
// that judges the real tree reads the same packages.
var loadModule = sync.OnceValues(func() (moduleLoad, error) {
	ld, err := NewLoader(".")
	if err != nil {
		return moduleLoad{}, err
	}
	pkgs, err := ld.Load("./...")
	return moduleLoad{ld, pkgs}, err
})

// TestModuleIsClean runs the full suite over the whole module: the tree
// must stay violation-free (CI enforces the same via cmd/simlint). The
// walk must reach every layer — the library tree, the cmd/* drivers and
// the examples/* programs — so a regression in any of them fails here,
// not just in CI.
func TestModuleIsClean(t *testing.T) {
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	ld, pkgs := m.ld, m.pkgs
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; loader is missing the module tree", len(pkgs))
	}
	trees := map[string]int{}
	for _, p := range pkgs {
		for _, prefix := range []string{"/internal/", "/cmd/", "/examples/"} {
			if strings.Contains(p.Path, prefix) {
				trees[prefix]++
			}
		}
	}
	for _, prefix := range []string{"/internal/", "/cmd/", "/examples/"} {
		if trees[prefix] == 0 {
			t.Errorf("no %s packages loaded; the clean check is not covering that tree", prefix)
		}
	}
	if !holdsModule(ld.ModulePath(), pkgs) {
		t.Error("./... is not a whole-module pass: the WholeModule analyzers judged nothing")
	}
	diags := Run(ld.ModulePath(), ld.Fset(), pkgs, All())
	for _, d := range diags {
		t.Errorf("%s", d.StringRel(ld.root))
	}
	// What nothing calls is deleted, not excused: the exceptions stay few.
	allowed := 0
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, group := range f.Comments {
				for _, c := range group.List {
					allowed += strings.Count(c.Text, DirectiveName+" "+Unreached.Name+" ")
				}
			}
		}
	}
	if allowed > 12 {
		t.Errorf("%d //%s %s directives; the cap is 12", allowed, DirectiveName, Unreached.Name)
	}
}

// hotbox finds the tiering tick by what it calls — recording a
// heat.History epoch — not by its name, so a refactor that stopped the
// tick from calling History.Push would empty tickSortRule without a
// word. On the real module the rule must start at Engine.Tick and reach
// the policies' candidate sorts through the Policy interface.
func TestTickSortRuleFindsTheTick(t *testing.T) {
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	facts := computeFacts(m.pkgs)
	const tick, plan = "(*repro/internal/tiering.Engine).Tick", "repro/internal/tiering.planWatermark"
	var entries []string
	for _, n := range facts.Nodes {
		if n.Fn != nil && tickSortRule.entry(n) {
			entries = append(entries, n.Fn.FullName())
		}
	}
	if !slices.Contains(entries, tick) {
		t.Fatalf("tickSortRule's entries are %v; %s is not among them", entries, tick)
	}
	reached := false
	for n := range facts.Reach(tickSortRule.entry, tickSortRule.exempt, tickSortRule.bridge) {
		reached = reached || n.Fn != nil && n.Fn.FullName() == plan
	}
	if !reached {
		t.Fatalf("tickSortRule does not reach %s from the tick", plan)
	}
}

// TestNarrowPassLeavesWholeModuleAnalyzersOut loads one package of the
// unreached fixture module: without the command that uses it nothing can
// be judged dead, and the allow directives in it are not stale either.
func TestNarrowPassLeavesWholeModuleAnalyzersOut(t *testing.T) {
	ld, err := NewLoader(filepath.Join("testdata", "src", "unreached"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := ld.Load(filepath.Join(ld.root, "internal", "lib"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run(ld.ModulePath(), ld.Fset(), pkgs, All()) {
		t.Errorf("narrow pass reported %s", d.StringRel(ld.root))
	}
}

// TestLoaderBasics pins the loader's module discovery and testdata
// exclusion.
func TestLoaderBasics(t *testing.T) {
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	if m.ld.ModulePath() != "repro" {
		t.Fatalf("module path = %q, want repro", m.ld.ModulePath())
	}
	for _, p := range m.pkgs {
		if strings.Contains(p.Path, "testdata") {
			t.Errorf("module walk descended into testdata: %s", p.Path)
		}
	}
}
