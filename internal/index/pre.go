// Columnar prefilter. A Summary spends two sorted []graph.ID allocations
// per graph (a struct, two slice headers, and two backing arrays to
// pointer-chase at scan time). The prefilter instead reads two things each
// stored graph already has:
//
//   - its signature word: one uint64 per entry, kept by internal/shard as
//     a column beside the entry slice — packed size bytes plus six
//     byte-wide label-bucket counters — so the common prune decision, by
//     sizes or by labels, is a few word ops with zero pointer chasing
//     (sigPrunes);
//   - its entry's label span (db.Entry.Labels): |V|, |E| and the sorted
//     label multisets as delta+run varints, walked run by run.
//
// The signature can only ever PRUNE (its bounds are provable lower bounds
// below the exact ones, and it knows nothing of the branch filter). Its
// counters hold up to 127 occurrences per bucket, so on graphs of tens of
// vertices (the AIDS- and AASD-shaped sets) they rarely saturate and the
// signature takes nearly every label-tier prune by itself. When it cannot
// decide, View.Tier recomputes the exact composite bound from the entry's
// span and interned branch multiset — bit-identical to PairPrunable,
// which the equivalence tests use as oracle.
//
// A View is one shard's signature column as a consistent cut published
// it. The shard appends to the column in place and copies it on every
// remove and replace, so a published View never changes.
package index

import (
	"sort"

	"gsim/internal/branch"
	"gsim/internal/db"
	"gsim/internal/graph"
)

// Signature word layout (high to low):
//
//	bits 56–63  min(|V|, 255)
//	bits 48–55  min(|E|, 255)
//	bits 16–47  four 8-bit vertex-label bucket counters, saturating at 127
//	bits  0–15  two 8-bit edge-label bucket counters, saturating at 127
//
// Labels hash into buckets by Fibonacci multiply; counters count multiset
// occurrences. The cap of 127 keeps each counter's bit 7 clear, so the
// SWAR min in sigPrunes can set it and borrow from it without crossing
// into the next byte. Capping and saturation keep every derived bound
// admissible — see sigPrunes.
const (
	sigVShift = 56
	sigEShift = 48
	sigCap    = 127 // counter saturation value

	sigVRegion = uint64(0x0000_FFFF_FFFF_0000) // vertex counter bytes
	sigERegion = uint64(0x0000_0000_0000_FFFF) // edge counter bytes
	sigMSB     = uint64(0x0000_8080_8080_8080) // per-counter bit 7
	sigLSB     = uint64(0x0000_0101_0101_0101) // per-counter bit 0
)

func vbucketShift(id graph.ID) uint {
	return uint(16 + 8*((uint32(id)*0x9E3779B1)>>30)) // 4 buckets
}

func ebucketShift(id graph.ID) uint {
	return uint(8 * ((uint32(id) * 0x9E3779B1) >> 31)) // 2 buckets
}

// sizeSig is the signature word of sizes nv and ne with every counter
// zero.
func sizeSig(nv, ne int) uint64 {
	return uint64(min(nv, 255))<<sigVShift | uint64(min(ne, 255))<<sigEShift
}

// addCounter adds n occurrences to the byte counter at shift, saturating
// at sigCap.
func addCounter(sig uint64, shift uint, n int) uint64 {
	if c := int(sig>>shift) & 0xFF; c < sigCap {
		sig += uint64(min(n, sigCap-c)) << shift
	}
	return sig
}

// SpanSig is the signature word of the graph whose label span is span:
// the word a stored entry's column holds. It walks the span's label runs,
// so it neither unpacks the graph nor allocates.
func SpanSig(span string) uint64 {
	nv, ne, off := db.SpanSizes(span)
	sig := sizeSig(nv, ne)
	off = db.SpanRuns(span, off, nv, func(l graph.ID, n int) { sig = addCounter(sig, vbucketShift(l), n) })
	db.SpanRuns(span, off, ne, func(l graph.ID, n int) { sig = addCounter(sig, ebucketShift(l), n) })
	return sig
}

// sigOf is the signature word of a summarised graph, a prepared query's:
// SpanSig over the Summary's multisets. The admissibility tests and
// FuzzSigPrunes sign Summaries that may hold more edge labels than a
// simple graph on their vertices can.
func sigOf(s Summary) uint64 {
	sig := sizeSig(s.V, s.E)
	for _, id := range s.VLabels {
		sig = addCounter(sig, vbucketShift(id), 1)
	}
	for _, id := range s.ELabels {
		sig = addCounter(sig, ebucketShift(id), 1)
	}
	return sig
}

// sumCounters adds the byte counters of x. Four counters of up to 127 can
// overflow a byte, so adjacent pairs first fold into 16-bit lanes, which
// the lane-sum multiply then adds (six live counters sum to at most 762).
func sumCounters(x uint64) int {
	x = (x & 0x00FF_00FF_00FF_00FF) + ((x >> 8) & 0x00FF_00FF_00FF_00FF)
	return int((x * 0x0001_0001_0001_0001) >> 48)
}

// saturated marks (in each counter's bit 7) the counters of x at the cap:
// 127 is the only counter value whose increment reaches bit 7.
func saturated(x uint64) uint64 {
	return (x + sigLSB) & sigMSB
}

// sigPrunes reports whether the signatures alone prove GED(a, b) > tau.
// Every decision is admissible:
//
//   - size: |minL(x,255) − minL(y,255)| ≤ |x − y| (clamping is
//     1-Lipschitz), so a capped difference over tau implies the true size
//     bound is too;
//   - labels: per bucket, min(counterA, counterB) equals the true
//     min(totalA, totalB) unless both sides saturate the same bucket
//     (127 vs 127 says nothing about the real counts), and summing bucket
//     minima over-counts the true multiset overlap, so
//     max(capA, capB) − Σ min is ≤ the true multiset distance. A region
//     with any doubly-saturated bucket contributes nothing (0 is always
//     admissible) rather than a possibly-inflated distance.
//
// A false return means "undecided", never "keep": the branch bound is not
// represented here at all, so the caller must fall back to the exact path.
func sigPrunes(a, b uint64, tau int) bool {
	va, vb := int(a>>sigVShift), int(b>>sigVShift)
	dv := va - vb
	if dv < 0 {
		dv = -dv
	}
	if dv > tau {
		return true
	}
	ea, eb := int(a>>sigEShift)&0xFF, int(b>>sigEShift)&0xFF
	de := ea - eb
	if de < 0 {
		de = -de
	}
	if de > tau {
		return true
	}

	// Per-byte min over the six counters: (a|0x80)−b sets each byte's
	// bit 7 iff aᵢ ≥ bᵢ (values ≤ 127 keep borrows inside their byte),
	// and ×0xFF spreads that into a select mask.
	al, bl := a&(sigVRegion|sigERegion), b&(sigVRegion|sigERegion)
	diff := (al | sigMSB) - bl
	ge := ((diff & sigMSB) >> 7) * 0xFF
	mn := (bl & ge) | (al &^ ge)

	sat := saturated(al) & saturated(bl)
	dist := 0
	if sat&sigVRegion == 0 {
		mv := va
		if vb > mv {
			mv = vb
		}
		dist = mv - sumCounters(mn&sigVRegion)
	}
	if sat&sigERegion == 0 {
		me := ea
		if eb > me {
			me = eb
		}
		dist += me - sumCounters(mn&sigERegion)
	}
	return dist > tau
}

// MemStats is the prefilter's memory footprint, surfaced through
// /v1/stats; see the server package for the JSON field docs.
type MemStats struct {
	Entries  int
	SigBytes int64 // the signature columns, 8 bytes per entry
	// MetaBytes is always 0: no per-entry locator is kept. The field
	// stays for benchmark/ladder.go, which sums all three byte counts.
	MetaBytes int64
	// ArenaBytes is the label-span bytes the entries hold, each entry's
	// 16-byte string header included.
	ArenaBytes int64
}

// View is one shard's signature column as a cut published it,
// slot-parallel to the cut's entries.
type View struct {
	Sig []uint64
}

// ViewOf signs entries into a View, for callers that hold entries outside
// a shard.
func ViewOf(entries []*db.Entry) View {
	sig := make([]uint64, len(entries))
	for i, e := range entries {
		sig[i] = SpanSig(e.Labels)
	}
	return View{Sig: sig}
}

// Len reports the number of entries in the snapshot.
func (v View) Len() int { return len(v.Sig) }

// Tier names the filter layer that proves a pair violates GED ≤ τ̂.
type Tier uint8

const (
	TierNone   Tier = iota // no layer prunes: the pair survives
	TierSize               // max(|ΔV|, |ΔE|) > τ̂
	TierLabel              // vertex- plus edge-label multiset distance > τ̂
	TierBranch             // ⌈GBD/2⌉ > τ̂
)

// Tier classifies entry e against a prepared query: the first layer —
// size, then labels, then branches — whose lower bound exceeds tau,
// evaluated exactly from the entry's label span and branch multiset, or
// TierNone when the pair survives all three. The prune decision is
// PairPrunable's, bit for bit. Tier reads nothing of the view: its
// receiver and slot are Prunable's, which tries the signature at slot
// first.
func (v *View) Tier(q *QueryPre, qBranches branch.IDs, e *db.Entry, slot, tau int) Tier {
	nv, ne, off := db.SpanSizes(e.Labels)
	if d := q.Sum.V - nv; d > tau || -d > tau {
		return TierSize
	}
	if d := q.Sum.E - ne; d > tau || -d > tau {
		return TierSize
	}
	vd, off := db.SpanDistance(q.Sum.VLabels, e.Labels, off, nv)
	if vd > tau {
		return TierLabel
	}
	ed, _ := db.SpanDistance(q.Sum.ELabels, e.Labels, off, ne)
	if vd+ed > tau {
		return TierLabel
	}
	// ⌈GBD/2⌉ > τ̂ ⇔ |B∩B| < max{|V1|,|V2|} − 2τ̂: the scorers' bounded
	// merge answers it without finishing a merge that is already lost.
	if _, ok := branch.IntersectAtLeastIDs(qBranches, e.Branches, max(len(qBranches), e.Branches.Len())-2*tau); !ok {
		return TierBranch
	}
	return TierNone
}

// QueryPre is a query prepared for the columnar prefilter: its signature
// word next to its summary (for the exact fallback).
type QueryPre struct {
	Sig uint64
	Sum Summary
}

// PrepareQuery summarises and signs a query graph.
func PrepareQuery(g *graph.Graph) QueryPre {
	sum := Summarize(g)
	return QueryPre{Sig: sigOf(sum), Sum: sum}
}

// Prunable reports whether slot provably violates GED ≤ tau against a
// prepared query — the signature word first, the exact span-based
// composite bound (Tier) only when the signature cannot decide. The
// decision is bit-identical to PairPrunable. A scan asks it only for the
// slots its branch postings name (see Postings): every other slot shares
// too few branches with the query to pass the branch tier.
func (v *View) Prunable(q *QueryPre, qBranches branch.IDs, e *db.Entry, slot, tau int) bool {
	return sigPrunes(q.Sig, v.Sig[slot], tau) || v.Tier(q, qBranches, e, slot, tau) != TierNone
}

// Flat lays views end to end and locates a position in them. Only
// benchmark/ladder.go and tests use it: the scan splits its ranges at
// view boundaries and asks each view itself.
type Flat struct {
	views  []View
	starts []int // starts[i] is the position of views[i]'s slot 0
}

// FlattenViews lays views end to end in O(len(views)); no slot is copied.
func FlattenViews(views []View) *Flat {
	f := &Flat{views: views, starts: make([]int, len(views)+1)}
	for i, v := range views {
		f.starts[i+1] = f.starts[i] + v.Len()
	}
	return f
}

// Prunable is View.Prunable at position pos of the laid-out views.
func (f *Flat) Prunable(q *QueryPre, qBranches branch.IDs, e *db.Entry, pos, tau int) bool {
	i := sort.SearchInts(f.starts, pos+1) - 1
	return f.views[i].Prunable(q, qBranches, e, pos-f.starts[i], tau)
}
