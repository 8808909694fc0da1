package stats

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Histogram is a fixed-bucket histogram safe for concurrent Observe
// calls, sized for latency tracking in the streaming pipeline: the
// bucket layout is immutable after construction, so recording is one
// binary search plus a counter bump under a short lock, with no
// per-sample allocation.
//
// Bounds are bucket upper edges in ascending order; a sample lands in
// the first bucket whose bound is ≥ the value, with one implicit
// overflow bucket above the last bound.
type Histogram struct {
	bounds []float64

	mu     sync.Mutex
	counts []uint64
	sum    float64
	min    float64
	max    float64
	n      uint64
}

// NewHistogram creates a histogram with the given ascending bucket
// upper bounds. It panics on an empty or unsorted layout — bucket
// layouts are static program data, not runtime input.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("stats: histogram needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("stats: histogram bounds not ascending at %d", i))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// latencyBounds is the LatencyBounds layout, built once.
var latencyBounds = func() []float64 {
	var b []float64
	for v := 1e-6; v < 10; v *= 2 {
		b = append(b, v)
	}
	return b
}()

// LatencyBounds is an exponential layout from 1 µs to ~10 s expressed
// in seconds, suitable for NewHistogram when observing durations via
// ObserveDuration. The slice is shared and must not be modified;
// NewHistogram and the obs registry copy it.
func LatencyBounds() []float64 { return latencyBounds }

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.mu.Unlock()
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// HistogramSummary is a point-in-time digest of a Histogram.
type HistogramSummary struct {
	Count    uint64
	Mean     float64
	Min      float64
	Max      float64
	P50, P90 float64
	P99      float64
}

// Summary digests the histogram. Quantiles are estimated by linear
// interpolation inside the winning bucket and clamped to the observed
// min/max, so they are exact for single-bucket data and never invent
// values outside the observed range.
func (h *Histogram) Summary() HistogramSummary {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSummary{Count: h.n, Min: h.min, Max: h.max}
	if h.n == 0 {
		return s
	}
	s.Mean = h.sum / float64(h.n)
	s.P50 = h.quantileLocked(0.50)
	s.P90 = h.quantileLocked(0.90)
	s.P99 = h.quantileLocked(0.99)
	return s
}

// Buckets is a raw dump of a Histogram's state: the immutable bucket
// upper edges and the per-bucket sample counts, plus the running sum
// and total. Counts has len(Bounds)+1 entries — the last is the
// implicit overflow bucket above the final bound. This is the export
// shape Prometheus-style exposition writers need (cumulate the counts,
// append a +Inf bucket).
type Buckets struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
	Count  uint64
}

// Buckets snapshots the histogram's buckets under the lock. The
// returned slices are copies and safe to retain.
func (h *Histogram) Buckets() Buckets {
	h.mu.Lock()
	defer h.mu.Unlock()
	return Buckets{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.n,
	}
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1).
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

func (h *Histogram) quantileLocked(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			lo, hi := h.bucketEdges(i)
			frac := 0.5
			if c > 0 {
				frac = (rank - cum) / float64(c)
			}
			v := lo + frac*(hi-lo)
			return math.Min(math.Max(v, h.min), h.max)
		}
		cum = next
	}
	return h.max
}

// bucketEdges returns the [lo, hi] value range of bucket i, clamping
// the open-ended edges to the observed extremes.
func (h *Histogram) bucketEdges(i int) (lo, hi float64) {
	if i == 0 {
		lo = h.min
	} else {
		lo = h.bounds[i-1]
	}
	if i >= len(h.bounds) {
		hi = h.max
	} else {
		hi = h.bounds[i]
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}
