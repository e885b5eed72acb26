package cli

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestParseDims(t *testing.T) {
	cases := []struct {
		in   string
		want []int
		ok   bool
	}{
		{"225,59,200", []int{225, 59, 200}, true},
		{" 4 , 5 ", []int{4, 5}, true},
		{"3", nil, false},
		{"", nil, false},
		{"4,0", nil, false},
		{"4,-2", nil, false},
		{"4,x", nil, false},
		{"2,3,4,5,6", []int{2, 3, 4, 5, 6}, true},
		{"60x50x40", []int{60, 50, 40}, true},
		{"8X6", []int{8, 6}, true},
		{"60x", nil, false},
	}
	for _, c := range cases {
		got, err := ParseDims(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseDims(%q): err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if !c.ok {
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("ParseDims(%q) = %v", c.in, got)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("ParseDims(%q)[%d] = %d, want %d", c.in, i, got[i], c.want[i])
			}
		}
	}
}

func TestParseMethod(t *testing.T) {
	cases := map[string]core.Method{
		"auto": core.MethodAuto, "": core.MethodAuto,
		"1step": core.MethodOneStep, "1-Step": core.MethodOneStep, "ONESTEP": core.MethodOneStep,
		"2step": core.MethodTwoStep, "two-step": core.MethodTwoStep,
		"reorder": core.MethodReorder, "baseline": core.MethodReorder,
		" auto ": core.MethodAuto,
	}
	for in, want := range cases {
		got, err := ParseMethod(in)
		if err != nil || got != want {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseMethod("fft"); err == nil {
		t.Error("unknown method should fail")
	}
	if _, err := ParseMethod("naive"); err == nil {
		t.Error("naive is not user-selectable")
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		12:          "12 B",
		2048:        "2.0 KiB",
		3 << 20:     "3.0 MiB",
		5 << 30:     "5.0 GiB",
		1536:        "1.5 KiB",
		1<<30 + 512: "1.0 GiB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
	if !strings.HasSuffix(FormatBytes(999), " B") {
		t.Error("sub-KiB should be bytes")
	}
}

func TestSlug(t *testing.T) {
	cases := map[string]string{
		"Figure 4 (C=25): KRP time": "figure-4-c-25-krp-time",
		"  lots   of   spaces  ":    "lots-of-spaces",
		"UPPER lower 123":           "upper-lower-123",
		"":                          "",
		"---":                       "",
		"trailing punctuation!!!":   "trailing-punctuation",
	}
	for in, want := range cases {
		if got := Slug(in); got != want {
			t.Errorf("Slug(%q) = %q, want %q", in, got, want)
		}
	}
	long := Slug("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa")
	if len(long) > 48 {
		t.Errorf("Slug did not truncate: %d chars", len(long))
	}
}

// FuzzParseDims feeds arbitrary text to ParseDims. It must never panic;
// accepted input has at least two dims, each at least 1, and those dims
// joined with "x" parse back equal.
func FuzzParseDims(f *testing.F) {
	for _, s := range []string{"60,50,40", "4x3X2", " 5 , 6 ", "7", "4,x", "0,3", "+2,03"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		dims, err := ParseDims(s)
		if err != nil {
			return
		}
		if len(dims) < 2 {
			t.Fatalf("%q parsed to %v: fewer than 2 dims", s, dims)
		}
		parts := make([]string, len(dims))
		for i, d := range dims {
			if d < 1 {
				t.Fatalf("%q parsed to %v: dim %d below 1", s, dims, i)
			}
			parts[i] = strconv.Itoa(d)
		}
		back, err := ParseDims(strings.Join(parts, "x"))
		if err != nil || !slices.Equal(back, dims) {
			t.Fatalf("%q parsed to %v, which joins back to %v (%v)", s, dims, back, err)
		}
	})
}
