package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile before the
// benchmark reports it: a tail read off fewer samples is one or two
// outliers, not a percentile.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of samples,
// which must be sorted ascending. ok is false when fewer than minTail
// samples lie beyond the chosen rank, so a p99 needs at least 1,100 or so
// samples and a p50 at least 21.
func percentile(sorted []float64, q float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if n-1-idx < minTail {
		return 0, false
	}
	return sorted[idx], true
}

// median returns the middle value of xs (the mean of the two middle ones
// for an even count) without requiring xs to be sorted.
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

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// latencies collects per-op wall times in microseconds for one op class.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, float64(d.Nanoseconds())/1e3) }

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// p99 returns the 99th percentile of l, sorting it, when it is supported.
func (l latencies) p99() (float64, bool) {
	sort.Float64s(l)
	return percentile(l, 0.99)
}

// The histogram's buckets are histGrowth wide: bucket i holds latencies
// from histMin·histGrowth^i up to the next bound, so a quantile read off
// it is within half a percent of the sample's, with 2,200 buckets
// covering 0.1 us to about five minutes.
const (
	histMin     = 0.1 // us; anything shorter counts in bucket 0
	histGrowth  = 1.01
	histBuckets = 2200
)

var logHistGrowth = math.Log(histGrowth)

// hist counts latencies in microseconds in buckets 1% wide.
type hist struct {
	n int64
	b [histBuckets]uint32
}

func (h *hist) add(us float64) {
	i := 0
	if us > histMin {
		i = min(int(math.Log(us/histMin)/logHistGrowth), histBuckets-1)
	}
	h.b[i]++
	h.n++
}

// merge adds o's counts to h; a nil o adds nothing.
func (h *hist) merge(o *hist) {
	if o == nil {
		return
	}
	for i, c := range o.b {
		h.b[i] += c
	}
	h.n += o.n
}

// quantile is the nearest-rank q-quantile (0 < q < 1) under the same
// rule as percentile: ok is false when fewer than minTail samples lie
// beyond the rank. The value is interpolated within its bucket by the
// rank's place among the bucket's samples, spread evenly on a log scale.
func (h *hist) quantile(q float64) (v float64, ok bool) {
	idx := int64(math.Ceil(q*float64(h.n))) - 1
	if idx < 0 {
		idx = 0
	}
	if h.n-1-idx < minTail {
		return 0, false
	}
	var below int64
	for i, c := range h.b {
		if below+int64(c) > idx {
			frac := (float64(idx-below) + 0.5) / float64(c)
			return histMin * math.Exp((float64(i)+frac)*logHistGrowth), true
		}
		below += int64(c)
	}
	return 0, false
}
