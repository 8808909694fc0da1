package main

import (
	"math"
	"sort"
)

// tailSamples is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailSamples = 10

// quantile returns the nearest-rank q-quantile of xs (0 for none). xs
// is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), q)]
}

// rank is the zero-based nearest-rank index of the q-quantile of n
// sorted samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// beyond counts the samples of n that lie strictly after the
// nearest-rank q-quantile.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, q)
}

// minSamples is the smallest sample count for which the q-quantile has
// at least tailSamples samples beyond it.
func minSamples(q float64) int {
	n := tailSamples + 1
	for beyond(n, q) < tailSamples {
		n++
	}
	return n
}

// median of xs (sorted in place).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// interval is a closed-open time span in Unix nanoseconds.
type interval struct{ S, E int64 }

// union merges overlapping intervals into a sorted disjoint list.
func union(ivs []interval) []interval {
	var in []interval
	for _, iv := range ivs {
		if iv.E > iv.S {
			in = append(in, iv)
		}
	}
	sort.Slice(in, func(i, j int) bool { return in[i].S < in[j].S })
	var out []interval
	for _, iv := range in {
		if n := len(out); n > 0 && iv.S <= out[n-1].E {
			if iv.E > out[n-1].E {
				out[n-1].E = iv.E
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// measure is the total length of a disjoint interval list.
func measure(ivs []interval) int64 {
	var t int64
	for _, iv := range ivs {
		t += iv.E - iv.S
	}
	return t
}

// selfTimes walks a critical path given as layers in causal order, each
// layer a set of possibly overlapping spans, and returns every layer's
// self time: the part of its spans' union between the end of the layer
// before it and `to`. A span that opened earlier, such as an assembly
// that began with another reader's report, claims nothing before the
// previous layer ended, so the self times never sum past [from, to]; the
// rest is time no layer on the path accounts for.
func selfTimes(from, to int64, layers [][]interval) []int64 {
	out := make([]int64, len(layers))
	cursor := from
	for k, layer := range layers {
		var clipped []interval
		end := cursor
		for _, iv := range layer {
			iv.S, iv.E = max(iv.S, cursor), min(iv.E, to)
			clipped = append(clipped, iv)
			end = max(end, iv.E)
		}
		out[k] = measure(union(clipped))
		cursor = end
	}
	return out
}
