package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"os"
	"path"
	"path/filepath"
	"strings"
)

// cacheSchema versions the on-disk entry format; bump it whenever the
// entry layout or the meaning of a stored diagnostic changes.
const cacheSchema = 3

// CacheDirName is the cache directory created under the module root, and
// cacheFileName the one entry in it.
const (
	CacheDirName  = ".simlintcache"
	cacheFileName = "entry.json"
)

// Cache is a content-hash result cache for simlint runs. Analyzer facts
// flow across package boundaries (call-graph taint reaches callees in
// other packages), so diagnostics are only reusable when nothing in the
// module changed, and the cache is shaped like that rule: it holds one
// entry, stamped with the module hash — go.mod plus every non-test Go
// source a request can name (testdata and _-prefixed trees included;
// only hidden directories are left out, and never served), mixed with
// the analyzer suite's fingerprint — and listing the package directories
// the run covered beside its diagnostics. A request whose directories are
// all covered is served; anything else runs cold and replaces the entry.
// A warm lookup therefore costs file hashing only — no parsing, no
// type-checking — which is what makes the cached re-run an order of
// magnitude faster than a cold one while producing byte-identical
// diagnostics.
type Cache struct {
	root  string          // module root (stored paths are relative to it)
	hash  string          // module hash of the tree as OpenCache found it
	whole map[string]bool // the suite's WholeModule analyzers, by name
}

// cacheEntry is the on-disk format of one run's results. Dirs are
// module-relative and slash-separated, like WireDiag.File.
type cacheEntry struct {
	Module string     `json:"module"` // hash of the module state the run saw
	Dirs   []string   `json:"dirs"`
	Diags  []WireDiag `json:"diags"`
}

// OpenCache prepares a cache rooted at the module directory, computing
// the module-wide content hash for the given analyzer suite. The cache
// directory itself is created by the first Store.
func OpenCache(root string, analyzers []*Analyzer) (*Cache, error) {
	h := sha256.New()
	fmt.Fprintf(h, "schema %d\n", cacheSchema)
	whole := make(map[string]bool)
	for _, a := range analyzers {
		fmt.Fprintf(h, "analyzer %s %s %s\n", a.Name, a.Severity, a.Doc)
		whole[a.Name] = a.WholeModule
	}
	// WalkDir visits in lexical order, so the hash is deterministic.
	err := filepath.WalkDir(root, func(file string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if file != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir // .git, the cache itself: see hidden
			}
			return nil
		}
		if name == "go.mod" || isSourceName(name) {
			return hashFile(h, file, relName(root, file))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Cache{root: root, hash: hex.EncodeToString(h.Sum(nil)), whole: whole}, nil
}

// hidden reports whether the module-relative directory rel lies in a
// .-prefixed tree, whose sources the module hash does not see.
func hidden(rel string) bool {
	return strings.HasPrefix(rel, ".") && rel != "." || strings.Contains(rel, "/.")
}

// hashFile mixes a file's label and contents into h.
func hashFile(h io.Writer, file, label string) error {
	data, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	fmt.Fprintf(h, "file %s %d\n", label, len(data))
	_, err = h.Write(data)
	return err
}

// Lookup returns, in reporting order, the stored diagnostics positioned
// in the given package directories — every analyzer reports into the
// files of the package under analysis — or ok=false when the entry is
// of another module state or analyzer suite, or does not cover every one
// of them. Findings of a WholeModule analyzer are served only to a
// request that holds the module, as a cold run of it would decide.
func (c *Cache) Lookup(dirs []string) (diags []Diagnostic, ok bool) {
	var e cacheEntry
	data, err := os.ReadFile(filepath.Join(c.root, CacheDirName, cacheFileName))
	if err != nil || json.Unmarshal(data, &e) != nil || e.Module != c.hash {
		return nil, false
	}
	asked := make(map[string]bool, len(e.Dirs)) // by covered directory
	for _, rel := range e.Dirs {
		asked[rel] = false
	}
	held := make(map[string]bool, len(dirs))
	for _, dir := range dirs {
		rel := relName(c.root, dir)
		if _, covered := asked[rel]; !covered || hidden(rel) {
			return nil, false
		}
		asked[rel] = true
		held[dir] = true
	}
	narrow := !holdsDirs(c.root, held)
	for _, w := range e.Diags {
		if asked[path.Dir(w.File)] && !(narrow && c.whole[w.Analyzer]) {
			diags = append(diags, Diagnostic{
				Pos:      token.Position{Filename: filepath.Join(c.root, filepath.FromSlash(w.File)), Line: w.Line, Column: w.Column},
				Analyzer: w.Analyzer, Severity: w.Severity, Message: w.Message,
			})
		}
	}
	return diags, true
}

// Store replaces whatever the cache holds with one run's result: the
// package directories it covered (a clean one is exactly what a warm run
// wants to know about) and the diagnostics Run returned for them.
func (c *Cache) Store(dirs []string, diags []Diagnostic) error {
	e := cacheEntry{Module: c.hash, Dirs: make([]string, len(dirs)), Diags: make([]WireDiag, len(diags))}
	for i, dir := range dirs {
		e.Dirs[i] = relName(c.root, dir)
	}
	for i, d := range diags {
		e.Diags[i] = d.Wire(c.root)
	}
	data, err := json.MarshalIndent(e, "", "\t")
	if err != nil {
		return err
	}
	dir := filepath.Join(c.root, CacheDirName)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, cacheFileName), append(data, '\n'), 0o644)
}
