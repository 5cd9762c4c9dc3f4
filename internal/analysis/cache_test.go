package analysis

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTestModule lays out a tiny self-contained module with one clean
// package and one package carrying a nodeterminism violation.
func writeTestModule(t testing.TB) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module cachetest\n\ngo 1.21\n",
		"clean/clean.go": `// Package clean has no findings.
package clean

// Add adds.
func Add(a, b int) int { return a + b }
`,
		"dirty/dirty.go": `// Package dirty reads the wall clock.
package dirty

import "time"

// Stamp leaks wall-clock time.
func Stamp() time.Time { return time.Now() }
`,
	}
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// runModule cold-runs the full suite over the module and returns the
// loader, resolved dirs and diagnostics.
func runModule(t testing.TB, root string) (*Loader, []string, []Diagnostic) {
	t.Helper()
	ld, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := ld.ResolveDirs(filepath.Join(root, "..."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := ld.Load(filepath.Join(root, "..."))
	if err != nil {
		t.Fatal(err)
	}
	return ld, dirs, Run(ld.ModulePath(), ld.Fset(), pkgs, All())
}

// sameDiags fails the test unless got reproduces want diagnostic for
// diagnostic, severity included.
func sameDiags(t *testing.T, got, want []Diagnostic) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("cache returned %d diagnostics, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].String() != want[i].String() || got[i].Severity != want[i].Severity {
			t.Errorf("diag %d: cached %q (%s) != cold %q (%s)",
				i, got[i].String(), got[i].Severity, want[i].String(), want[i].Severity)
		}
	}
}

// TestCacheRoundTrip pins the cache contract: a stored run is served
// back identically, clean packages included, and so is any subset of the
// directories it covered.
func TestCacheRoundTrip(t *testing.T) {
	root := writeTestModule(t)
	_, dirs, diags := runModule(t, root)
	if len(diags) == 0 {
		t.Fatal("fixture module produced no diagnostics")
	}

	cache, err := OpenCache(root, All())
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Store(dirs, diags); err != nil {
		t.Fatal(err)
	}

	// A fresh cache handle (fresh module hash) must hit on the stored
	// dirs and reproduce the run byte-for-byte.
	cache2, err := OpenCache(root, All())
	if err != nil {
		t.Fatal(err)
	}
	got, ok := cache2.Lookup(dirs)
	if !ok {
		t.Fatalf("cache miss for %v on an unchanged module", dirs)
	}
	sameDiags(t, got, diags)

	// A subset of the covered dirs is served warm with its own share of
	// the findings: none for the clean package, all of them for the other.
	if got, ok := cache2.Lookup([]string{filepath.Join(root, "clean")}); !ok || len(got) != 0 {
		t.Errorf("clean subset: ok=%v with %d diagnostics, want a hit with none", ok, len(got))
	}
	got, ok = cache2.Lookup([]string{filepath.Join(root, "dirty")})
	if !ok {
		t.Fatal("cache miss for a covered subset")
	}
	sameDiags(t, got, diags)

	// A directory the stored run did not cover is a miss, not an empty hit.
	if _, ok := cache2.Lookup(append(dirs, filepath.Join(root, "other"))); ok {
		t.Error("cache hit for a directory the stored run never covered")
	}
}

// TestCacheKeepsWholeModuleFindingsForWholeRequests: a subset request is
// served from a whole-module entry with what a cold run of it would
// report, which leaves the WholeModule analyzers out.
func TestCacheKeepsWholeModuleFindingsForWholeRequests(t *testing.T) {
	root := writeTestModule(t)
	lib := filepath.Join(root, "internal", "lib")
	if err := os.MkdirAll(lib, 0o755); err != nil {
		t.Fatal(err)
	}
	src := "// Package lib holds a function nothing calls.\npackage lib\n\n// Dead is dead.\nfunc Dead() {}\n"
	if err := os.WriteFile(filepath.Join(lib, "lib.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	_, dirs, diags := runModule(t, root)
	cache, err := OpenCache(root, All())
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Store(dirs, diags); err != nil {
		t.Fatal(err)
	}
	count := func(dirs []string) (n int) {
		got, ok := cache.Lookup(dirs)
		if !ok {
			t.Fatalf("cache miss for %v", dirs)
		}
		for _, d := range got {
			if d.Analyzer == Unreached.Name {
				n++
			}
		}
		return n
	}
	if n := count(dirs); n != 1 {
		t.Errorf("whole-module request served %d unreached findings, want 1", n)
	}
	if n := count([]string{lib}); n != 0 {
		t.Errorf("subset request served %d unreached findings; a cold run of it judges none", n)
	}
}

// TestCacheInvalidation pins the two staleness axes: editing any module
// file misses (facts cross package boundaries), and a different analyzer
// suite never reuses the entry. Either way the next Store replaces the
// entry instead of adding one.
func TestCacheInvalidation(t *testing.T) {
	root := writeTestModule(t)
	_, dirs, diags := runModule(t, root)
	cache, err := OpenCache(root, All())
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Store(dirs, diags); err != nil {
		t.Fatal(err)
	}

	// A subset analyzer suite has a different fingerprint: no reuse in
	// either direction.
	subset, err := OpenCache(root, []*Analyzer{NoDeterminism})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := subset.Lookup(dirs); ok {
		t.Error("cache hit under a different analyzer suite")
	}

	// Edit the clean package: even the dirty package's findings must go
	// stale, because taint facts flow across packages.
	cleanGo := filepath.Join(root, "clean", "clean.go")
	if err := os.WriteFile(cleanGo, []byte("// Package clean has no findings.\npackage clean\n\n// Add adds.\nfunc Add(a, b int) int { return b + a }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	edited, err := OpenCache(root, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		if _, ok := edited.Lookup([]string{dir}); ok {
			t.Errorf("cache hit for %s after a module edit", dir)
		}
	}

	// A second Store, from the edited module, replaces the entry: the
	// cache directory holds exactly one file, and it is served.
	_, dirs, diags = runModule(t, root)
	if err := edited.Store(dirs, diags); err != nil {
		t.Fatal(err)
	}
	if ents, err := os.ReadDir(filepath.Join(root, CacheDirName)); err != nil || len(ents) != 1 {
		t.Errorf("cache directory holds %d files after a second Store (err %v), want exactly one", len(ents), err)
	}
	got, ok := edited.Lookup(dirs)
	if !ok {
		t.Fatal("cache miss right after Store")
	}
	sameDiags(t, got, diags)

	// go.mod is part of the module state too.
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module cachetest\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	bumped, err := OpenCache(root, All())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := bumped.Lookup(dirs); ok {
		t.Error("cache hit after a go.mod edit")
	}

	// Trees ./... skips can still be named outright. A testdata (or _)
	// tree is part of the module state like any other: a run over it is
	// served until a file in it changes. A hidden tree is not hashed, so
	// a run over it is never served.
	fixture := filepath.Join(root, "dirty", "testdata", "fix", "fix.go")
	for _, file := range []string{fixture, filepath.Join(root, ".hidden", "h", "h.go")} {
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte("package p\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ld, _, _ := runModule(t, root)
	named, err := ld.ResolveDirs(filepath.Join(root, "dirty", "testdata", "..."), filepath.Join(root, ".hidden", "..."))
	if err != nil || len(named) != 2 {
		t.Fatalf("named trees resolved to %v (err %v), want the two fixture dirs", named, err)
	}
	withFixtures, err := OpenCache(root, All())
	if err != nil {
		t.Fatal(err)
	}
	if err := withFixtures.Store(named, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := withFixtures.Lookup(named[:1]); !ok {
		t.Error("cache miss for an unchanged testdata tree")
	}
	if _, ok := withFixtures.Lookup(named[1:]); ok {
		t.Error("cache hit for a hidden tree the module hash does not cover")
	}
	if err := os.WriteFile(fixture, []byte("package p\n\nvar X int\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fixtureEdited, err := OpenCache(root, All())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fixtureEdited.Lookup(named[:1]); ok {
		t.Error("cache hit after editing a file in a named testdata tree")
	}
}

// FuzzEntryDecode overwrites a stored entry.json with arbitrary bytes.
// Lookup never panics, and what it serves comes from an entry that decodes
// and carries this module state's hash, positioned in the directories
// asked for; anything else is a miss, which the driver answers with a cold
// run.
func FuzzEntryDecode(f *testing.F) {
	root := writeTestModule(f)
	_, dirs, diags := runModule(f, root)
	cache, err := OpenCache(root, All())
	if err != nil {
		f.Fatal(err)
	}
	if err := cache.Store(dirs, diags); err != nil {
		f.Fatal(err)
	}
	entry := filepath.Join(root, CacheDirName, cacheFileName)
	valid, err := os.ReadFile(entry)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(append(bytes.Clone(valid), valid...))
	f.Add(bytes.Replace(valid, []byte(cache.hash), []byte(strings.Repeat("0", len(cache.hash))), 1))
	f.Add([]byte(`{"module":"` + cache.hash + `","dirs":["clean","dirty",".","../.."],"diags":[{"file":"../x.go","line":-1},{"file":"dirty/../../x.go"}]}`))
	f.Add([]byte(`{"module":"` + cache.hash + `","dirs":null,"diags":null}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(entry, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := cache.Lookup(dirs)
		if !ok {
			return
		}
		var e cacheEntry
		if json.Unmarshal(data, &e) != nil || e.Module != cache.hash {
			t.Fatalf("served %d diagnostics from an entry that is not this module state's: %q", len(got), data)
		}
		for _, d := range got {
			if dir := filepath.Dir(d.Pos.Filename); dir != dirs[0] && dir != dirs[1] {
				t.Fatalf("served a diagnostic positioned in %s, outside the directories asked for", dir)
			}
		}
	})
}
