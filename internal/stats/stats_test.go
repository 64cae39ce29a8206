package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEqual(got, c.want) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	v, err := Variance(xs)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(v, 32.0/7.0) {
		t.Fatalf("Variance = %v, want %v", v, 32.0/7.0)
	}
	s, err := StdDev(xs)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(s, math.Sqrt(32.0/7.0)) {
		t.Fatalf("StdDev = %v", s)
	}
}

func TestVarianceInsufficientData(t *testing.T) {
	if _, err := Variance([]float64{1}); err != ErrInsufficientData {
		t.Fatalf("err = %v, want ErrInsufficientData", err)
	}
	if _, err := StdDev(nil); err != ErrInsufficientData {
		t.Fatalf("err = %v, want ErrInsufficientData", err)
	}
}

func TestMinMaxMedian(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if Min(xs) != 1 || Max(xs) != 5 {
		t.Fatalf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if got := Median(xs); got != 3 {
		t.Fatalf("Median = %v, want 3", got)
	}
	if got := Median([]float64{1, 2, 3, 4}); !almostEqual(got, 2.5) {
		t.Fatalf("even Median = %v, want 2.5", got)
	}
	// Median must not reorder its input.
	if xs[0] != 3 || xs[4] != 5 {
		t.Fatal("Median mutated input")
	}
	if Min(nil) != 0 || Max(nil) != 0 || Median(nil) != 0 {
		t.Fatal("empty-slice extrema should be 0")
	}
}

func TestPercentHelpers(t *testing.T) {
	if got := PercentChange(100, 120); !almostEqual(got, 20) {
		t.Fatalf("PercentChange = %v", got)
	}
	if got := PercentImprovement(100, 40); !almostEqual(got, 60) {
		t.Fatalf("PercentImprovement = %v", got)
	}
	if got := PercentImprovement(100, 120); !almostEqual(got, -20) {
		t.Fatalf("negative improvement = %v", got)
	}
	if PercentChange(0, 5) != 0 || PercentImprovement(0, 5) != 0 || Slowdown(0, 5) != 0 {
		t.Fatal("zero-base helpers must return 0")
	}
	if got := Slowdown(2, 3); !almostEqual(got, 1.5) {
		t.Fatalf("Slowdown = %v", got)
	}
}

func TestStdDevNonNegativeProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				clean = append(clean, x)
			}
		}
		if len(clean) < 2 {
			return true
		}
		s, err := StdDev(clean)
		return err == nil && s >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStdDevShiftInvarianceProperty(t *testing.T) {
	// StdDev(x + c) == StdDev(x) for any constant shift.
	f := func(seed uint32) bool {
		xs := make([]float64, 16)
		r := uint64(seed) | 1
		for i := range xs {
			r ^= r << 13
			r ^= r >> 7
			r ^= r << 17
			xs[i] = float64(r % 1000)
		}
		s1, _ := StdDev(xs)
		shifted := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + 12345
		}
		s2, _ := StdDev(shifted)
		return math.Abs(s1-s2) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := Percentile(xs, 50); got != 3 {
		t.Fatalf("p50 = %v", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(xs, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := Percentile(xs, 99); got != 5 {
		t.Fatalf("p99 = %v", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
	// Out-of-range p clamps.
	if Percentile(xs, -5) != 1 || Percentile(xs, 200) != 5 {
		t.Fatal("clamping broken")
	}
	// Input must not be reordered.
	if xs[0] != 5 {
		t.Fatal("Percentile mutated input")
	}
}

func TestCoefficientOfVariation(t *testing.T) {
	if got := CoefficientOfVariation([]float64{2, 2, 2}); got != 0 {
		t.Fatalf("constant CV = %v", got)
	}
	xs := []float64{1, 3}
	want := math.Sqrt(2) / 2
	if got := CoefficientOfVariation(xs); !almostEqual(got, want) {
		t.Fatalf("CV = %v, want %v", got, want)
	}
	if CoefficientOfVariation(nil) != 0 || CoefficientOfVariation([]float64{0, 0}) != 0 {
		t.Fatal("degenerate CV should be 0")
	}
}

func TestQuartilesOf(t *testing.T) {
	cases := []struct {
		in   []float64
		want Quartiles
	}{
		{nil, Quartiles{}},
		{[]float64{7}, Quartiles{7, 7, 7}},
		{[]float64{3, 1}, Quartiles{1, 2, 3}},
		{[]float64{4, 1, 3, 2}, Quartiles{1.5, 2.5, 3.5}},
		// Odd n: the median belongs to both halves.
		{[]float64{5, 1, 4, 2, 3}, Quartiles{2, 3, 4}},
		{[]float64{9, 1, 8, 2, 7, 3, 6}, Quartiles{2.5, 6, 7.5}},
		{[]float64{2, 2, 2}, Quartiles{2, 2, 2}},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.in...)
		got := QuartilesOf(in)
		if !almostEqual(got.Q1, c.want.Q1) || !almostEqual(got.Median, c.want.Median) || !almostEqual(got.Q3, c.want.Q3) {
			t.Errorf("QuartilesOf(%v) = %+v, want %+v", c.in, got, c.want)
		}
		if got.Median != Median(c.in) {
			t.Errorf("QuartilesOf(%v).Median = %v, Median = %v", c.in, got.Median, Median(c.in))
		}
		for i := range in {
			if in[i] != c.in[i] {
				t.Fatalf("QuartilesOf modified its input: %v", in)
			}
		}
	}
}
