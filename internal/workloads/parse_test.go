package workloads

import (
	"strings"
	"testing"
)

func TestParseSize(t *testing.T) {
	for _, want := range AllSizes() {
		got, err := ParseSize(want.String())
		if err != nil || got != want {
			t.Errorf("ParseSize(%q) = %v, %v; want %v", want.String(), got, err, want)
		}
	}
	for _, bad := range []string{"", "TINY", "huge", " tiny", "large "} {
		if _, err := ParseSize(bad); err == nil {
			t.Errorf("ParseSize(%q) accepted an invalid size", bad)
		}
	}
}

func TestParseSizes(t *testing.T) {
	got, err := ParseSizes("tiny, large")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != Tiny || got[1] != Large {
		t.Fatalf("ParseSizes(\"tiny, large\") = %v", got)
	}
	if _, err := ParseSizes("tiny,huge"); err == nil {
		t.Fatal("ParseSizes accepted an invalid element")
	}
	if _, err := ParseSizes(""); err == nil {
		t.Fatal("ParseSizes accepted an empty list")
	}
}

// FuzzParseSize feeds the size parsers what a flag or a request body can
// hold: they never panic, and a string that parses names a size that
// prints back as itself (a list, as its elements joined).
func FuzzParseSize(f *testing.F) {
	for _, seed := range []string{"tiny", "small", "large", "", "TINY", " tiny", "size(3)", "tiny,large", "tiny, small ,large", ",", "tiny,,large", "huge"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if size, err := ParseSize(s); err == nil && size.String() != s {
			t.Errorf("ParseSize(%q) = %v, which prints as %q", s, size, size.String())
		}
		sizes, err := ParseSizes(s)
		if err != nil {
			return
		}
		parts := strings.Split(s, ",")
		if len(sizes) != len(parts) {
			t.Fatalf("ParseSizes(%q) = %v: %d sizes for %d elements", s, sizes, len(sizes), len(parts))
		}
		for i, size := range sizes {
			if size.String() != strings.TrimSpace(parts[i]) {
				t.Errorf("ParseSizes(%q)[%d] = %v, want the size named %q", s, i, size, parts[i])
			}
		}
	})
}
