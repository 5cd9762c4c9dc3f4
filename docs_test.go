package repro

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// commandMention finds `go run ./cmd/X args…`, `cmd/X -flag …` and
// `repro sub -flag …` in prose, tables, code blocks and workflow steps; the
// arguments run to the end of the line or to the first character that
// closes a code span or starts shell plumbing.
var commandMention = regexp.MustCompile("(?:cmd/|`repro )([a-z*]+)((?:[ \t]+[^\\s`|&>#;)]+)*)")

// TestDocsAndCINameRealCommands keeps the documentation and the workflow
// honest about the command surface: every cmd/X they mention is a
// directory of this tree, every repro subcommand is one the binary lists,
// and every flag is one that command's own -h prints. A stale mention is
// how CI came to run 4 of 14 commands while DESIGN.md documented flags no
// command accepted.
func TestDocsAndCINameRealCommands(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the commands")
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}
	// usage returns what the command prints when asked for help (or, for
	// bare repro, when given nothing), stdout and stderr together.
	usage := func(args ...string) string {
		cmd := exec.Command(filepath.Join(bin, args[0]), args[1:]...)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		cmd.Run() // -h exits 0 or 2 by command; the text is what is read
		return out.String()
	}
	flagLine := regexp.MustCompile(`(?m)^\s+-([a-z][a-z-]*)`)
	flagsOf := map[string]map[string]bool{} // "hibench", "repro mba" -> registered flags
	registered := func(command []string, flag string) bool {
		key := strings.Join(command, " ")
		if flagsOf[key] == nil {
			flagsOf[key] = map[string]bool{}
			for _, m := range flagLine.FindAllStringSubmatch(usage(append(command, "-h")...), -1) {
				flagsOf[key][m[1]] = true
			}
		}
		return flagsOf[key][flag]
	}
	subcommands := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^  ([a-z]+) `).FindAllStringSubmatch(usage("repro"), -1) {
		subcommands[m[1]] = true
	}

	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", "results/README.md", ".github/workflows/ci.yml"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range commandMention.FindAllStringSubmatch(string(text), -1) {
			name, args := m[1], strings.Fields(m[2])
			if strings.HasPrefix(m[0], "`repro ") {
				name, args = "repro", append([]string{m[1]}, args...)
			}
			if name == "*" {
				continue // "cmd/*": the directory as a whole
			}
			if st, err := os.Stat(filepath.Join("cmd", name)); err != nil || !st.IsDir() {
				t.Errorf("%s: %q names cmd/%s, which does not exist", doc, m[0], name)
				continue
			}
			command := []string{name}
			if name == "repro" && len(args) > 0 && !strings.HasPrefix(args[0], "-") {
				if !subcommands[args[0]] {
					t.Errorf("%s: %q names repro subcommand %q, which is not registered", doc, m[0], args[0])
					continue
				}
				command, args = append(command, args[0]), args[1:]
			}
			for _, arg := range args {
				if !strings.HasPrefix(arg, "-") {
					continue // a flag's value or a positional argument
				}
				flag, _, _ := strings.Cut(strings.TrimLeft(arg, "-"), "=")
				if !registered(command, flag) {
					t.Errorf("%s: %q passes -%s, which %s does not register", doc, m[0], flag, strings.Join(command, " "))
				}
			}
		}
	}
}

// pathMention finds the repository paths prose names: a file under
// results/, a *_output.txt transcript, an examples/ program. In
// results/README.md a backticked bare file name is a sibling of the README.
var (
	pathMention    = regexp.MustCompile(`\b(results/[\w.-]+\.(?:md|txt|json)|\w+_output\.txt|examples/[\w-]+)`)
	siblingMention = regexp.MustCompile("`([\\w-]+\\.(?:md|txt|json))`")
)

// TestDocsNameRealPaths fails on a named artefact that is not in the tree:
// README.md cited test and bench transcripts nobody had committed, and a
// results/ file deleted or renamed would otherwise stay advertised.
func TestDocsNameRealPaths(t *testing.T) {
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", "results/README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		var paths []string
		for _, m := range pathMention.FindAllStringSubmatch(string(text), -1) {
			paths = append(paths, m[1])
		}
		if doc == "results/README.md" {
			for _, m := range siblingMention.FindAllStringSubmatch(string(text), -1) {
				paths = append(paths, filepath.Join("results", m[1]))
			}
		}
		for _, path := range paths {
			if _, err := os.Stat(path); err != nil {
				t.Errorf("%s names %s, which is not in the tree", doc, path)
			}
		}
	}
}

// TestExamplesBuildAndRun keeps examples/ more than prose: each program
// builds and runs to exit 0. They are the only callers of the Chrome trace
// export and EnableTracing, so this is also what keeps those alive for
// simlint's unreached analyzer.
func TestExamplesBuildAndRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the examples")
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	traceFile := filepath.Join(t.TempDir(), "trace.json")
	for name, args := range map[string][]string{
		"quickstart":       nil,
		"pagerank-tiering": nil,
		"trace-explorer":   {traceFile},
	} {
		out, err := exec.Command(filepath.Join(bin, name), args...).CombinedOutput()
		if err != nil || len(out) == 0 {
			t.Errorf("examples/%s %v: %v\n%s", name, args, err, out)
		}
	}
	if fi, err := os.Stat(traceFile); err != nil || fi.Size() == 0 {
		t.Errorf("examples/trace-explorer wrote no trace file: %v", err)
	}
}

// TestWorkflowStepNamesParse rejects the defect that once disabled every
// CI check silently: a plain YAML scalar holding ": " ends at the colon, so
// GitHub refuses the whole workflow file.
func TestWorkflowStepNamesParse(t *testing.T) {
	text, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(text), "\n") {
		value, ok := strings.CutPrefix(strings.TrimLeft(line, " -"), "name: ")
		if !ok || strings.HasPrefix(value, `"`) || strings.HasPrefix(value, "'") {
			continue
		}
		if strings.Contains(value, ": ") || strings.HasSuffix(value, ":") {
			t.Errorf("ci.yml:%d: unquoted name %q contains a colon-space; quote it or reword", i+1, value)
		}
	}
}
