package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// newTempModule writes a go.mod and the given files under a temp root.
func newTempModule(t *testing.T, modLine string, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte(modLine), 0o644); err != nil {
		t.Fatal(err)
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

// TestLoaderMalformedSource pins that a syntax error surfaces as a load
// error naming the file, not a panic or a silent skip.
func TestLoaderMalformedSource(t *testing.T) {
	root := newTempModule(t, "module broken\n", map[string]string{
		"bad/bad.go": "package bad\n\nfunc Oops( {\n",
	})
	ld, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ld.Load(filepath.Join(root, "bad")); err == nil {
		t.Fatal("loading a syntactically invalid package succeeded")
	} else if !strings.Contains(err.Error(), "bad.go") {
		t.Fatalf("error does not name the bad file: %v", err)
	}
}

// TestLoaderTypeError pins that a type error is reported with the
// package path in the message.
func TestLoaderTypeError(t *testing.T) {
	root := newTempModule(t, "module broken\n", map[string]string{
		"typ/typ.go": "package typ\n\nvar X int = \"not an int\"\n",
	})
	ld, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ld.Load(filepath.Join(root, "typ")); err == nil {
		t.Fatal("loading a type-broken package succeeded")
	} else if !strings.Contains(err.Error(), "broken/typ") {
		t.Fatalf("error does not name the package: %v", err)
	}
}

// TestLoaderMissingDir pins the missing-package error path.
func TestLoaderMissingDir(t *testing.T) {
	root := newTempModule(t, "module empty\n", nil)
	ld, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ld.Load(filepath.Join(root, "nosuchdir")); err == nil {
		t.Fatal("loading a nonexistent directory succeeded")
	}
	// A dir with no Go files is not an error — it is simply no package.
	if err := os.Mkdir(filepath.Join(root, "docs"), 0o755); err != nil {
		t.Fatal(err)
	}
	pkgs, err := ld.Load(filepath.Join(root, "docs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 0 {
		t.Fatalf("empty directory yielded %d packages", len(pkgs))
	}
}

// TestLoaderNoModuleDirective pins findModule's two failure modes: a
// go.mod with no module line, and no go.mod at all.
func TestLoaderNoModuleDirective(t *testing.T) {
	root := newTempModule(t, "go 1.21\n", nil)
	if _, err := NewLoader(root); err == nil {
		t.Fatal("NewLoader accepted a go.mod without a module directive")
	} else if !strings.Contains(err.Error(), "module directive") {
		t.Fatalf("unexpected error: %v", err)
	}
	// And no go.mod anywhere up the tree (os.TempDir has none on the
	// runners this test targets; guard with a sentinel check).
	orphan := t.TempDir()
	if _, statErr := os.Stat(filepath.Join(filepath.Dir(orphan), "go.mod")); os.IsNotExist(statErr) {
		if _, err := NewLoader(orphan); err == nil {
			t.Error("NewLoader found a module where none exists")
		}
	}
}

// TestLoaderBuildConstraints pins that files excluded by //go:build are
// neither parsed nor type-checked: the ignored file below would be a
// type error if loaded, and the foreign-platform file would redeclare
// Impl.
func TestLoaderBuildConstraints(t *testing.T) {
	root := newTempModule(t, "module tags\n", map[string]string{
		"pkg/pkg.go":     "// Package pkg is the portable part.\npackage pkg\n\n// Impl names the build.\nconst Impl = \"generic\"\n",
		"pkg/gen.go":     "//go:build ignore\n\npackage main\n\nvar X int = \"a generator script, never loaded\"\n",
		"pkg/foreign.go": "//go:build someotheros\n\npackage pkg\n\n// Impl would redeclare the portable one.\nconst Impl = \"foreign\"\n",
	})
	ld, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := ld.Load(filepath.Join(root, "pkg"))
	if err != nil {
		t.Fatalf("constrained files were not skipped: %v", err)
	}
	if len(pkgs) != 1 || len(pkgs[0].Files) != 1 {
		t.Fatalf("got %d packages, want 1 with exactly the portable file", len(pkgs))
	}

	// A package whose files are all excluded loads as no package at all.
	if err := os.WriteFile(filepath.Join(root, "pkg", "pkg.go"), []byte("//go:build ignore\n\npackage pkg\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(root, "pkg", "foreign.go")); err != nil {
		t.Fatal(err)
	}
	ld2, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err = ld2.Load(filepath.Join(root, "pkg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 0 {
		t.Fatalf("fully build-excluded directory yielded %d packages", len(pkgs))
	}

	// A constraint the go tool cannot parse is a load error naming the
	// file, as it is for go build: not a guess at whether to include it.
	if err := os.WriteFile(filepath.Join(root, "pkg", "odd.go"), []byte("//go:build linux &&\n\npackage pkg\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ld3, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ld3.Load(filepath.Join(root, "pkg")); err == nil {
		t.Fatal("a malformed //go:build line loaded")
	} else if !strings.Contains(err.Error(), "odd.go") {
		t.Fatalf("error does not name the file: %v", err)
	}
}
