package main

import "math"

// hist is a log-bucketed latency histogram: fixed memory however long a
// run lasts, so the load generator's own bookkeeping does not grow the
// heap the benchmark measures. Buckets are 1% wide; quantiles interpolate
// within a bucket.
type hist struct {
	counts [histBuckets]uint32
	n      int
}

const (
	histBuckets = 2000 // 1 µs to ~400 s
	histGrowth  = 1.01
)

var histLogGrowth = math.Log(histGrowth)

// bucket i holds values in [histBound(i), histBound(i+1)) µs; bucket 0
// also holds everything below 1 µs.
func histBound(i int) float64 {
	if i == 0 {
		return 0
	}
	return math.Exp(float64(i-1) * histLogGrowth)
}

func (h *hist) add(us float64) {
	i := 0
	if us >= 1 {
		i = int(math.Log(us)/histLogGrowth) + 1
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.counts[i]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in µs (NaN when empty), placing the
// k-th of a bucket's c samples at fraction (k+0.5)/c of its width.
func (h *hist) quantile(q float64) float64 {
	if h == nil || h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n-1)
	seen := 0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(seen+int(c)) > rank {
			lo, hi := histBound(i), histBound(i+1)
			return lo + (hi-lo)*(rank-float64(seen)+0.5)/float64(c)
		}
		seen += int(c)
	}
	return histBound(histBuckets)
}
