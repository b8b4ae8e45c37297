package trace

import (
	"slices"
	"strings"
	"testing"
)

// TestReadCSVRejectsUnrepresentable: offsets that parse as floats but do
// not fit a time.Duration — NaN, infinities, and values past the range —
// are errors, not wrapped-around arrivals.
func TestReadCSVRejectsUnrepresentable(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"NaN\n", "non-finite"},
		{"nan\n", "non-finite"},
		{"Inf\n", "non-finite"},
		{"+Inf\n", "non-finite"},
		{"-Inf\n", "non-finite"},
		{"infinity\n", "non-finite"},
		{"1e300\n", "out of range"},
		{"9.3e9\n", "out of range"},
		{"1.0\n1e300\n", "line 2"},
		{"-0.5\n", "negative"},
		{"1e400\n", "out of range"}, // ParseFloat's own range error
	}
	for _, tc := range cases {
		_, err := ReadCSV("x", strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ReadCSV(%q) error = %v, want one mentioning %q", tc.in, err, tc.want)
		}
	}
	// The largest accepted offset still leaves room for the duration.
	tr, err := ReadCSV("x", strings.NewReader("4.6e9\n"))
	if err != nil {
		t.Fatal(err)
	}
	if last := tr.Arrivals[0]; last <= 0 || tr.Duration <= last {
		t.Fatalf("arrival %v, duration %v: want a positive arrival before the duration", last, tr.Duration)
	}
}

// FuzzReadCSV: ReadCSV never panics, and every trace it accepts has sorted,
// non-negative arrivals and a duration past the last one.
func FuzzReadCSV(f *testing.F) {
	for _, seed := range []string{
		"# trace=steady duration_s=3.000\n0.000000\n1.500000\n2.250000\n",
		"2.0\n1.0\n",
		"",
		"# only a comment\n",
		"NaN\n",
		"-Inf\n",
		"1e300\n",
		"4.6e9\n0\n",
		"  3.5  \n\n-0\n",
		"0x1p-3\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ReadCSV("fuzz", strings.NewReader(in))
		if err != nil {
			return
		}
		if !slices.IsSorted(tr.Arrivals) {
			t.Fatalf("arrivals not sorted: %v", tr.Arrivals)
		}
		for _, a := range tr.Arrivals {
			if a < 0 {
				t.Fatalf("negative arrival %v", a)
			}
		}
		if n := len(tr.Arrivals); n > 0 && tr.Duration <= tr.Arrivals[n-1] {
			t.Fatalf("duration %v not past last arrival %v", tr.Duration, tr.Arrivals[n-1])
		}
	})
}
