package graph

import (
	"fmt"
	"math"
)

// Section II of the paper notes that GBDA "can also handle directed and
// weighted graphs by considering edge directions and weights as special
// labels". The helpers below implement that folding so callers can feed
// directed or weighted data through the undirected labeled model without
// inventing their own conventions.

// FoldDirectedLabel combines a base edge label with the relative direction
// of the edge. For an edge u→v stored as the undirected pair {min,max}, the
// direction flag records whether the arc leaves the smaller endpoint
// (">" ) or enters it ("<"); a bidirectional pair folds to "=".
func FoldDirectedLabel(dict *Labels, base string, fromSmaller, toSmaller bool) ID {
	switch {
	case fromSmaller && toSmaller:
		return dict.Intern(base + "|=")
	case fromSmaller:
		return dict.Intern(base + "|>")
	default:
		return dict.Intern(base + "|<")
	}
}

// DirectedLabel returns the label the arc u→v with base label base gives
// the edge {u,v}, labeled existing when present: a new arc folds its
// direction, the opposite arc of the same base merges into the
// bidirectional form, and any other label already there conflicts.
func DirectedLabel(dict *Labels, u, v int, base string, existing ID, present bool) (ID, error) {
	fromSmaller := u < v
	if !present {
		return FoldDirectedLabel(dict, base, fromSmaller, !fromSmaller), nil
	}
	opposite := base + "|>"
	if fromSmaller {
		opposite = base + "|<"
	}
	if dict.Name(existing) != opposite {
		return 0, fmt.Errorf("arc (%d,%d) conflicts with existing label %q", u, v, dict.Name(existing))
	}
	return FoldDirectedLabel(dict, base, true, true), nil
}

// WeightBuckets quantises edge weights into labeled buckets. The paper's
// model compares labels for equality only, so continuous weights must be
// discretised; Buckets controls the resolution/robustness trade.
type WeightBuckets struct {
	// Min and Max bound the expected weight range; weights outside are
	// clamped.
	Min, Max float64
	// Buckets is the number of equal-width intervals (default 16).
	Buckets int
}

// Fold maps a weight to its bucket label, e.g. "w7".
func (wb WeightBuckets) Fold(dict *Labels, weight float64) ID {
	n := wb.Buckets
	if n <= 0 {
		n = 16
	}
	lo, hi := wb.Min, wb.Max
	if hi <= lo {
		hi = lo + 1
	}
	x := (weight - lo) / (hi - lo)
	b := int(math.Floor(x * float64(n)))
	if b < 0 {
		b = 0
	}
	if b >= n {
		b = n - 1
	}
	return dict.Intern(fmt.Sprintf("w%d", b))
}
