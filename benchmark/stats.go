package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of sorted
// (ascending) durations, 0 for an empty slice.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func sortDurations(d []time.Duration) []time.Duration {
	slices.Sort(d)
	return d
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianF returns the median of vals (mean of the middle pair for an even
// count), 0 for none.
func medianF(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func medianDur(d []time.Duration) time.Duration {
	return percentile(sortDurations(append([]time.Duration(nil), d...)), 0.5)
}

// quartiles returns the first and third quartile of vals by the
// exclusive method — what Python's statistics.quantiles(vals, n=4)
// gives, which is how the driver judges run-to-run spread. It needs at
// least two values.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th of 4 cut points
		n := len(s)
		pos := float64(k*(n+1)) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// span is one traced interval. Spans of one request share RequestID;
// Parent names the span that caused this one (0 = a root).
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"`
	Name      string `json:"name"`
	StartNS   int64  `json:"start_ns"` // since the run's trace origin
	EndNS     int64  `json:"end_ns"`
	RequestID string `json:"request_id,omitempty"`
}

// selfTimes maps each span ID to the span's duration minus the part of
// its interval that its child spans cover (overlapping children are not
// counted twice; a child is clipped to its parent).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = s.EndNS - s.StartNS - covered
	}
	return out
}
