package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/par"
)

// Severity classifies a diagnostic: errors are invariant violations,
// warnings are quality findings. The driver prints it and fails on both.
type Severity string

const (
	// SevError marks a correctness-invariant violation.
	SevError Severity = "error"
	// SevWarning marks a quality or hygiene finding.
	SevWarning Severity = "warning"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Severity Severity
	Message  string
}

// String renders "file:line: analyzer: message" with the position's
// filename as stored (absolute under the loader).
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
}

// StringRel renders the diagnostic with its filename relative to base
// (falling back to the absolute path if base does not contain it).
func (d Diagnostic) StringRel(base string) string {
	return fmt.Sprintf("%s:%d: %s: %s", relName(base, d.Pos.Filename), d.Pos.Line, d.Analyzer, d.Message)
}

// relName is name relative to base and slash-separated, or name as it is
// when base does not contain it.
func relName(base, name string) string {
	if rel, err := filepath.Rel(base, name); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return name
}

// WireDiag is a diagnostic as simlint -json serializes it, with File
// relative to the working directory.
type WireDiag struct {
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Column   int      `json:"column"`
	Analyzer string   `json:"analyzer"`
	Severity Severity `json:"severity"`
	Message  string   `json:"message"`
}

// Wire is d in its serialized form, its filename relative to base.
func (d Diagnostic) Wire(base string) WireDiag {
	return WireDiag{
		File: relName(base, d.Pos.Filename), Line: d.Pos.Line, Column: d.Pos.Column,
		Analyzer: d.Analyzer, Severity: d.Severity, Message: d.Message,
	}
}

// Analyzer is one invariant checker.
type Analyzer struct {
	// Name is the identifier used in diagnostics and allow directives.
	Name string
	// Doc is a one-line description for -list output.
	Doc string
	// Severity classifies this analyzer's findings.
	Severity Severity
	// WholeModule marks an analyzer whose findings are only sound when
	// the pass holds every package directory ./... resolves to from the
	// module root. On a narrower pass the framework leaves it out: it
	// reports nothing, and allowaudit does not judge its directives.
	WholeModule bool
	// Init, when set, runs once per module before the per-package runs,
	// with a Pass whose Pkg is nil; its return value is handed to every
	// Run via Pass.State. Module-wide facts (call-graph taint sets) are
	// computed here so the per-package runs can execute in parallel.
	Init func(p *Pass) any
	// Run inspects one package (p.Pkg) and reports findings. It may run
	// concurrently with other packages' runs and must treat the Pass's
	// shared fields (Facts, State) as read-only. A nil Run marks a
	// directive-level analyzer handled by the framework itself
	// (allowaudit).
	Run func(p *Pass)
}

// Pass is the state handed to an analyzer run: the loaded packages, the
// module call graph, the package under analysis and the diagnostic sink.
type Pass struct {
	// ModulePath is the module's import-path prefix.
	ModulePath string
	// Packages are all packages under analysis, sorted by path.
	Packages []*Package
	// Fset positions every file in Packages.
	Fset *token.FileSet
	// Facts is the shared module call graph.
	Facts *Facts
	// Pkg is the package this Run call analyzes (nil during Init).
	Pkg *Package

	analyzer *Analyzer
	state    any
	diags    *[]Diagnostic
}

// State returns the value the analyzer's Init produced for this run.
func (p *Pass) State() any { return p.state }

// Reportf records a diagnostic at pos for the running analyzer.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	sev := p.analyzer.Severity
	if sev == "" {
		sev = SevError
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Severity: sev,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{NoDeterminism, LockSafety, ErrFlow, Hotbox, Unreached, AllowAudit}
}

// DirectiveName is the comment prefix of a suppression directive:
// //simlint:allow <analyzer> <reason>.
const DirectiveName = "simlint:allow"

// directive is one parsed //simlint:allow comment.
type directive struct {
	file     string
	line     int
	pos      token.Pos
	analyzer string
	// funcStart/funcEnd are set when the directive sits in a function's
	// doc comment, in which case it covers the whole declaration.
	funcStart, funcEnd int
}

// Run executes the analyzers over the packages, applies suppression
// directives and returns the surviving diagnostics sorted by position.
// Per-package analyzer runs execute in parallel (the shared facts are
// computed once, then treated as read-only), so the result is
// deterministic for any GOMAXPROCS. Malformed directives are themselves
// reported (analyzer "simlint") so a typo cannot silently disable a
// check; when the AllowAudit analyzer is enabled, directives that no
// longer suppress anything are reported too.
func Run(modulePath string, fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	facts := computeFacts(pkgs)

	// known are the analyzers a directive may name; audited those whose
	// directives allowaudit judges, because they ran.
	known := make(map[string]bool)
	audited := make(map[string]bool)
	whole := holdsModule(modulePath, pkgs)
	ran := make([]*Analyzer, 0, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
		if !a.WholeModule || whole {
			audited[a.Name] = true
			ran = append(ran, a)
		}
	}
	analyzers = ran

	var diags []Diagnostic
	states := make([]any, len(analyzers))
	for i, a := range analyzers {
		if a.Init != nil {
			p := &Pass{ModulePath: modulePath, Packages: pkgs, Fset: fset, Facts: facts, analyzer: a, diags: &diags}
			states[i] = a.Init(p)
		}
	}

	// One result slot per (analyzer, package) pair keeps the merge order
	// independent of goroutine scheduling.
	results := make([][]Diagnostic, len(analyzers)*len(pkgs))
	par.Do(len(results), 0, func(slot int) {
		i := slot / len(pkgs)
		if a := analyzers[i]; a.Run != nil {
			a.Run(&Pass{
				ModulePath: modulePath, Packages: pkgs, Fset: fset,
				Facts: facts, Pkg: pkgs[slot%len(pkgs)],
				analyzer: a, state: states[i], diags: &results[slot],
			})
		}
	})
	for _, r := range results {
		diags = append(diags, r...)
	}

	var dirs []directive
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			dirs = append(dirs, collectDirectives(fset, f, known, &diags)...)
		}
	}

	matched := make([]bool, len(dirs))
	kept := diags[:0]
	for _, d := range diags {
		if suppressed(d, dirs, matched) {
			continue
		}
		kept = append(kept, d)
	}
	if audited[AllowAudit.Name] {
		for i, dir := range dirs {
			if matched[i] || dir.analyzer == AllowAudit.Name || !audited[dir.analyzer] {
				continue
			}
			kept = append(kept, Diagnostic{
				Pos:      fset.Position(dir.pos),
				Analyzer: AllowAudit.Name,
				Severity: AllowAudit.Severity,
				Message: fmt.Sprintf("stale suppression: no %s finding is emitted here anymore; remove the //%s directive",
					dir.analyzer, DirectiveName),
			})
		}
	}
	sortDiagnostics(kept)
	return kept
}

// sortDiagnostics orders diagnostics by (file, line, analyzer, message):
// the canonical reporting order Run returns, the same for any GOMAXPROCS.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// collectDirectives parses every //simlint:allow comment in the file. A
// directive on its own line covers the next line; an end-of-line
// directive covers its own line; a directive in a function's doc comment
// covers the whole function.
func collectDirectives(fset *token.FileSet, f *ast.File, known map[string]bool, diags *[]Diagnostic) []directive {
	// Map doc-comment groups to their function's extent.
	funcDocs := make(map[*ast.CommentGroup][2]int)
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
			funcDocs[fd.Doc] = [2]int{fset.Position(fd.Pos()).Line, fset.Position(fd.End()).Line}
		}
	}
	var out []directive
	for _, group := range f.Comments {
		for _, c := range group.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, DirectiveName) {
				continue
			}
			pos := fset.Position(c.Pos())
			fields := strings.Fields(text)
			if len(fields) < 3 {
				*diags = append(*diags, Diagnostic{Pos: pos, Analyzer: "simlint", Severity: SevError,
					Message: fmt.Sprintf("malformed directive %q: want //%s <analyzer> <reason>", text, DirectiveName)})
				continue
			}
			name := fields[1]
			if !known[name] {
				*diags = append(*diags, Diagnostic{Pos: pos, Analyzer: "simlint", Severity: SevError,
					Message: fmt.Sprintf("directive names unknown analyzer %q", name)})
				continue
			}
			d := directive{file: pos.Filename, line: pos.Line, pos: c.Pos(), analyzer: name}
			if span, ok := funcDocs[group]; ok {
				d.funcStart, d.funcEnd = span[0], span[1]
			}
			out = append(out, d)
		}
	}
	return out
}

// suppressed reports whether a diagnostic is covered by a directive: same
// file and analyzer, and the directive is on the diagnostic's line, the
// line above it, or is a func-doc directive whose function contains it.
// Every covering directive is recorded in matched so the allowaudit pass
// can tell live directives from stale ones. Framework diagnostics
// ("simlint") and allowaudit's own findings cannot be suppressed.
func suppressed(d Diagnostic, dirs []directive, matched []bool) bool {
	if d.Analyzer == "simlint" || d.Analyzer == AllowAudit.Name {
		return false
	}
	hit := false
	for i, dir := range dirs {
		if dir.file != d.Pos.Filename || dir.analyzer != d.Analyzer {
			continue
		}
		if (dir.funcEnd > 0 && d.Pos.Line >= dir.funcStart && d.Pos.Line <= dir.funcEnd) ||
			d.Pos.Line == dir.line || d.Pos.Line == dir.line+1 {
			matched[i] = true
			hit = true
		}
	}
	return hit
}
