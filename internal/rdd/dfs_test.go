package rdd_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dfs"
	"repro/internal/rdd"
)

func linesParse(block []byte) []string {
	s := strings.TrimRight(string(block), "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

func linesRender(records []string) []byte {
	if len(records) == 0 {
		return nil
	}
	return []byte(strings.Join(records, "\n") + "\n")
}

func TestTextFileDFSMissingFile(t *testing.T) {
	app := newApp()
	fs := dfs.New(1, 0, 0)
	if _, err := rdd.TextFileDFS(app, fs, "/nope"); err == nil {
		t.Fatal("missing text file accepted")
	}
}

// TextFileDFS must reassemble lines that span block boundaries, exactly
// once each, in order.
func TestTextFileDFSBoundarySpanningLines(t *testing.T) {
	app := newApp()
	fs := dfs.New(2, 32, 1) // tiny blocks force many split lines
	var input bytes.Buffer
	var want []string
	for i := 0; i < 40; i++ {
		line := fmt.Sprintf("record-%02d-abcdefghij", i)
		want = append(want, line)
		input.WriteString(line + "\n")
	}
	if err := fs.Create("/t", input.Bytes()); err != nil {
		t.Fatal(err)
	}
	r, err := rdd.TextFileDFS(app, fs, "/t")
	if err != nil {
		t.Fatal(err)
	}
	got := rdd.Collect(r)
	if len(got) != len(want) {
		t.Fatalf("got %d lines, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// A single line longer than a whole block must still come back intact.
func TestTextFileDFSLineLongerThanBlock(t *testing.T) {
	app := newApp()
	fs := dfs.New(1, 16, 1)
	long := strings.Repeat("x", 100)
	if err := fs.Create("/long", []byte("a\n"+long+"\nb\n")); err != nil {
		t.Fatal(err)
	}
	r, err := rdd.TextFileDFS(app, fs, "/long")
	if err != nil {
		t.Fatal(err)
	}
	got := rdd.Collect(r)
	if len(got) != 3 || got[0] != "a" || got[1] != long || got[2] != "b" {
		t.Fatalf("long-line roundtrip broken: %d lines", len(got))
	}
}

// readDFS concatenates a file's blocks.
func readDFS(t *testing.T, fs *dfs.FileSystem, path string) []byte {
	t.Helper()
	ids, err := fs.Blocks(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, id := range ids {
		data, err := fs.ReadBlock(id)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data...)
	}
	return out
}

func TestSaveToDFSRoundtrip(t *testing.T) {
	app := newApp()
	fs := dfs.New(2, 256, 1)
	var lines []string
	for i := 0; i < 30; i++ {
		lines = append(lines, fmt.Sprintf("rec-%d", i))
	}
	r := rdd.Parallelize(app, "lines", lines, 4)
	n, err := rdd.SaveToDFS(r, fs, "/out/result.txt", linesRender)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatal("no bytes written")
	}
	raw := readDFS(t, fs, "/out/result.txt")
	back := linesParse(raw)
	if len(back) != 30 || back[0] != "rec-0" || back[29] != "rec-29" {
		t.Fatalf("dfs roundtrip corrupted: %d records, %q..%q", len(back), back[0], back[len(back)-1])
	}
}

func TestSaveToDFSWriteOnce(t *testing.T) {
	app := newApp()
	fs := dfs.New(1, 0, 0)
	r := rdd.Parallelize(app, "x", []string{"a"}, 1)
	if _, err := rdd.SaveToDFS(r, fs, "/o", linesRender); err != nil {
		t.Fatal(err)
	}
	if _, err := rdd.SaveToDFS(r, fs, "/o", linesRender); err == nil {
		t.Fatal("overwrite accepted; HDFS output paths are write-once")
	}
}

// End-to-end: generate -> stage to DFS -> read back -> shuffle -> save,
// the HiBench dataprep-then-run pipeline in miniature.
func TestDFSPipelineEndToEnd(t *testing.T) {
	app := newApp()
	fs := dfs.New(4, 512, 2)

	// Dataprep: write a corpus to DFS.
	var corpus []string
	words := []string{"dram", "nvm", "tier", "spark"}
	for i := 0; i < 200; i++ {
		corpus = append(corpus, words[i%len(words)])
	}
	gen := rdd.Parallelize(app, "gen", corpus, 8)
	if _, err := rdd.SaveToDFS(gen, fs, "/hibench/input", linesRender); err != nil {
		t.Fatal(err)
	}

	// Run: read from DFS (lines may span blocks), count words via a
	// shuffle, save results.
	in, err := rdd.TextFileDFS(app, fs, "/hibench/input")
	if err != nil {
		t.Fatal(err)
	}
	pairs := rdd.Map(in, func(w string) rdd.Pair[string, int] { return rdd.KV(w, 1) })
	counts := rdd.ReduceByKey(pairs, func(a, b int) int { return a + b }, 4)
	rendered := rdd.Map(counts, func(p rdd.Pair[string, int]) string {
		return fmt.Sprintf("%s=%d", p.Key, p.Val)
	})
	if _, err := rdd.SaveToDFS(rendered, fs, "/hibench/output", linesRender); err != nil {
		t.Fatal(err)
	}

	raw := readDFS(t, fs, "/hibench/output")
	got := map[string]bool{}
	for _, line := range linesParse(raw) {
		got[line] = true
	}
	for _, w := range words {
		if !got[fmt.Sprintf("%s=50", w)] {
			t.Fatalf("word count wrong; output lines: %v", linesParse(raw))
		}
	}
}
