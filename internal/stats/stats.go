// Package stats provides the statistical measures used throughout the GSTM
// experiments: sample standard deviation and variance of execution times,
// abort-count histograms and their tail metric, the distinct-state count
// used as the non-determinism measure, percentage-change helpers, and the
// median-and-quartiles spread and environment block every BENCH record
// carries.
//
// All definitions follow Section II-B of the paper:
//
//   - Variance of a thread's execution time is reported as the sample
//     standard deviation s = sqrt(1/(N-1) * Σ (x_i - mean)^2).
//   - Non-determinism is the number of distinct thread transactional states
//     |S| exercised by an execution.
//   - The tail metric for a thread is Σ j^2 over every distinct abort count
//     j that occurred with non-zero frequency (Section VII).
package stats

import (
	"errors"
	"math"
	"runtime"
	"sort"
)

// ErrInsufficientData is returned by estimators that need at least two
// samples (e.g. sample standard deviation).
var ErrInsufficientData = errors.New("stats: need at least two samples")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs.
// It returns ErrInsufficientData when len(xs) < 2.
func Variance(xs []float64) (float64, error) {
	if len(xs) < 2 {
		return 0, ErrInsufficientData
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1), nil
}

// StdDev returns the sample standard deviation of xs, the paper's measure of
// execution-time variance. It returns ErrInsufficientData when len(xs) < 2.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// Min returns the minimum of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the median of xs, or 0 for an empty slice.
// The input slice is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// Quartiles is a sample's median with its lower and upper hinges: the
// spread a BENCH record reports beside each median.
type Quartiles struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// QuartilesOf returns the median of xs and Tukey's hinges: the medians
// of its lower and upper halves, an odd sample's middle value belonging
// to both. An empty slice is all zeros. The input slice is not modified.
func QuartilesOf(xs []float64) Quartiles {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	return Quartiles{Q1: Median(cp[:(n+1)/2]), Median: Median(cp), Q3: Median(cp[n/2:])}
}

// Env is the environment block every BENCH report carries, so two reports
// can be checked for comparability before their numbers are.
type Env struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
}

// Environment describes the running process.
func Environment() Env {
	return Env{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version()}
}

// PercentChange returns the percentage change from base to next:
// positive when next > base. It returns 0 when base == 0.
func PercentChange(base, next float64) float64 {
	if base == 0 {
		return 0
	}
	return (next - base) / base * 100
}

// PercentImprovement returns the percentage *reduction* from base to next:
// positive when next < base (an improvement for variance-like quantities).
// It returns 0 when base == 0.
func PercentImprovement(base, next float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - next) / base * 100
}

// Slowdown returns next/base as a multiplicative slowdown factor
// (1.0 = unchanged, 2.0 = twice as slow). It returns 0 when base == 0.
func Slowdown(base, next float64) float64 {
	if base == 0 {
		return 0
	}
	return next / base
}

// Percentile returns the p-th percentile of xs (0 <= p <= 100) using
// nearest-rank on a sorted copy; it returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	rank := int(math.Ceil(p / 100 * float64(len(cp))))
	if rank < 1 {
		rank = 1
	}
	return cp[rank-1]
}

// CoefficientOfVariation returns the sample standard deviation divided by
// the mean — the relative jitter measure used for frame-time reporting.
// It returns 0 when the mean is 0 or there are fewer than two samples.
func CoefficientOfVariation(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	sd, err := StdDev(xs)
	if err != nil {
		return 0
	}
	return sd / m
}
