package main

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is one noisy operation, not a distribution.
const minBeyond = 10

// tailPercentile returns the highest percentile, at most want, that leaves
// at least minBeyond of n samples above its nearest-rank position. The
// benchmark reports that percentile (with n) when a window holds too few
// samples for the one asked for.
func tailPercentile(n uint64, want float64) (float64, error) {
	if n <= minBeyond {
		return 0, fmt.Errorf("%d samples leave none with %d beyond", n, minBeyond)
	}
	// Nearest rank r = ceil(p*n/100) and n-r >= minBeyond give
	// p <= 100*(n-minBeyond)/n.
	limit := 100 * float64(n-minBeyond) / float64(n)
	return math.Min(want, limit), nil
}

// latHist is a log-linear latency histogram in ns. Values below
// 2^histSub are exact; above, every power of two splits into 2^histSub
// buckets, so a bucket is at most 1/2^histSub (0.8%) of its value wide.
// It is fixed-size, so a long run's client-side memory does not grow with
// the number of operations and stays out of mem_peak_mb.
type latHist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histSub = 7
	// Latencies are capped below 2^32 ns, the top octave histSub+1 bits
	// under it.
	histBuckets = (32 - histSub + 1) << histSub
)

func histIndex(v uint64) int {
	if v < 1<<histSub {
		return int(v)
	}
	exp := bits.Len64(v) - histSub - 1
	return exp<<histSub + int(v>>uint(exp))
}

// histBucket returns bucket i's inclusive low bound and its width.
func histBucket(i int) (low, width uint64) {
	if i < 1<<histSub {
		return uint64(i), 1
	}
	exp := i>>histSub - 1
	mant := uint64(i - exp<<histSub)
	return mant << uint(exp), 1 << uint(exp)
}

func (h *latHist) add(ns uint64) {
	if ns >= 1<<32 {
		ns = 1<<32 - 1
	}
	h.counts[histIndex(ns)]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the p-th percentile by nearest rank, interpolated
// within the bucket that holds that rank.
func (h *latHist) quantile(p float64) float64 {
	// The epsilon keeps float error from pushing a rank that
	// tailPercentile placed exactly minBeyond from the top one rank higher.
	r := uint64(math.Ceil(p/100*float64(h.n) - 1e-9))
	if r < 1 {
		r = 1
	}
	var cum uint64
	for i, c := range h.counts {
		if c == 0 || cum+c < r {
			cum += c
			continue
		}
		low, width := histBucket(i)
		return float64(low) + float64(width)*(float64(r-cum)-0.5)/float64(c)
	}
	return 0
}

// pctStat is one reported percentile: the percentile actually used (after
// the ≥minBeyond rule), its value and the samples behind it.
type pctStat struct {
	pct     float64
	valUs   float64
	n       uint64
	windows []float64 // per-window values, when valUs was chosen from them
}

// percentileUs reports h's want-th percentile in µs, lowered by
// tailPercentile when h holds few samples.
func percentileUs(h *latHist, want float64) (pctStat, error) {
	p, err := tailPercentile(h.n, want)
	if err != nil {
		return pctStat{}, err
	}
	return pctStat{pct: p, valUs: h.quantile(p) / 1e3, n: h.n}, nil
}

// median returns the middle of xs (mean of the two middles for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
