package workloads

import "testing"

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

// FuzzParseSize feeds the size parser what a flag or a request body can
// hold: it never panics, and a string that parses names a size that
// prints back as itself.
func FuzzParseSize(f *testing.F) {
	for _, seed := range []string{"tiny", "small", "large", "", "TINY", " tiny", "size(3)", "tiny,large", "tiny, small ,large", ",", "tiny,,large", "huge"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if size, err := ParseSize(s); err == nil && size.String() != s {
			t.Errorf("ParseSize(%q) = %v, which prints as %q", s, size, size.String())
		}
	})
}
