// Succinct columnar prefilter. A Summary spends two sorted []graph.ID
// allocations per graph (a struct, two slice headers, and two backing
// arrays to pointer-chase at scan time). The Store below keeps the same
// information per shard in three flat columns:
//
//   - sig: one fixed-width uint64 signature per entry — packed size bytes
//     plus six byte-wide label-bucket counters — so the common prune
//     decision, by sizes or by labels, is a few word ops with zero
//     pointer chasing (sigPrunes);
//   - meta: {arena offset, |V|, |E|} per entry, 12 bytes;
//   - arena: one shared byte slice holding every entry's sorted label
//     multisets as delta+run varint spans.
//
// The signature can only ever PRUNE (its bounds are provable lower bounds
// below the exact ones, and it knows nothing of the branch filter). Its
// counters hold up to 127 occurrences per bucket, so on graphs of tens of
// vertices (the AIDS- and AASD-shaped sets) they rarely saturate and the
// signature takes nearly every label-tier prune by itself. When it cannot
// decide, View.Tier recomputes the exact composite bound from the arena
// spans and the entry's interned branch multiset — bit-identical to
// PairPrunable, which the equivalence tests use as oracle.
//
// Concurrency contract (matching internal/shard's snapshot discipline):
// writers mutate a Store only under the owning bucket's lock; readers use
// a View snapshot taken under that lock. The arena is append-only (dead
// bytes from deletes/updates are left in place until Compact republishes
// a fresh slice) and sig/meta are copied on every remove/replace, so a
// published View is immutable.
package index

import (
	"encoding/binary"
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

// addCounter bumps the byte counter at shift, saturating at sigCap.
func addCounter(sig uint64, shift uint) uint64 {
	if (sig>>shift)&0xFF < sigCap {
		sig += 1 << shift
	}
	return sig
}

// sigOf packs a Summary into its signature word.
func sigOf(s Summary) uint64 {
	v, e := uint64(s.V), uint64(s.E)
	if v > 255 {
		v = 255
	}
	if e > 255 {
		e = 255
	}
	sig := v<<sigVShift | e<<sigEShift
	for _, id := range s.VLabels {
		sig = addCounter(sig, vbucketShift(id))
	}
	for _, id := range s.ELabels {
		sig = addCounter(sig, ebucketShift(id))
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

// Arena span codec. An entry's span is its sorted vertex-label multiset
// followed by its sorted edge-label multiset; each section is a sequence
// of run tokens over its (value, count) runs with the running previous
// value reset to zero at the section start:
//
//	token   = uvarint(delta<<1 | runFlag)
//	delta   = value − prev, in uint32 arithmetic (negative ephemeral IDs
//	          round-trip through the wraparound)
//	runFlag = 1 ⇒ followed by uvarint(count − 2)
//
// Sections are self-contained, so a span can be relocated verbatim by
// compaction. Duplicate-heavy label multisets (the common case: few
// distinct labels over many vertices) cost ~2 bytes per distinct run
// instead of 4 bytes per occurrence.

// appendSpan encodes one sorted label multiset onto the arena.
func appendSpan(arena []byte, labels []graph.ID) []byte {
	var tmp [binary.MaxVarintLen64]byte
	prev := uint32(0)
	for i := 0; i < len(labels); {
		v := uint32(labels[i])
		j := i + 1
		for j < len(labels) && labels[j] == labels[i] {
			j++
		}
		tok := uint64(v-prev) << 1
		if j-i >= 2 {
			tok |= 1
		}
		n := binary.PutUvarint(tmp[:], tok)
		arena = append(arena, tmp[:n]...)
		if j-i >= 2 {
			n = binary.PutUvarint(tmp[:], uint64(j-i-2))
			arena = append(arena, tmp[:n]...)
		}
		prev = v
		i = j
	}
	return arena
}

// spanDistance merges the span at off (count label occurrences) against a
// sorted query multiset, returning the multiset distance — identical to
// multisetDistance over the decoded span — and the offset past the span.
func spanDistance(q []graph.ID, arena []byte, off uint32, count int) (int, uint32) {
	p := int(off)
	prev := uint32(0)
	common, qi := 0, 0
	for remaining := count; remaining > 0; {
		tok, n := binary.Uvarint(arena[p:])
		p += n
		run := 1
		if tok&1 != 0 {
			r, n2 := binary.Uvarint(arena[p:])
			p += n2
			run = int(r) + 2
		}
		prev += uint32(tok >> 1)
		remaining -= run
		val := graph.ID(prev)
		for qi < len(q) && q[qi] < val {
			qi++
		}
		if qi < len(q) && q[qi] == val {
			j := qi
			for j < len(q) && q[j] == val {
				j++
			}
			qc := j - qi
			if qc > run {
				qc = run
			}
			common += qc
			qi = j
		}
	}
	m := len(q)
	if count > m {
		m = count
	}
	return m - common, uint32(p)
}

// spanEnd returns the offset past the span at off holding count label
// occurrences.
func spanEnd(arena []byte, off uint32, count int) uint32 {
	p := int(off)
	for remaining := count; remaining > 0; {
		tok, n := binary.Uvarint(arena[p:])
		p += n
		run := 1
		if tok&1 != 0 {
			r, n2 := binary.Uvarint(arena[p:])
			p += n2
			run = int(r) + 2
		}
		remaining -= run
	}
	return uint32(p)
}

// decodeSpan reconstructs the sorted label multiset of a span — the
// diagnostic/test inverse of appendSpan.
func decodeSpan(arena []byte, off uint32, count int) ([]graph.ID, uint32) {
	out := make([]graph.ID, 0, count)
	p := int(off)
	prev := uint32(0)
	for remaining := count; remaining > 0; {
		tok, n := binary.Uvarint(arena[p:])
		p += n
		run := 1
		if tok&1 != 0 {
			r, n2 := binary.Uvarint(arena[p:])
			p += n2
			run = int(r) + 2
		}
		prev += uint32(tok >> 1)
		remaining -= run
		for k := 0; k < run; k++ {
			out = append(out, graph.ID(prev))
		}
	}
	return out, uint32(p)
}

// Meta locates one entry's span and carries the exact (uncapped) sizes
// the size filter needs.
type Meta struct {
	Off  uint32 // span start in the arena
	V, E uint32
}

// Store is the mutable per-bucket columnar prefilter. All methods require
// the owning bucket's write lock; View hands out immutable snapshots.
type Store struct {
	sig         []uint64
	meta        []Meta
	arena       []byte
	dead        int // arena bytes belonging to removed/replaced entries
	compactions uint64
}

// NewStore pre-sizes the columns for n entries.
func NewStore(n int) *Store {
	return &Store{
		sig:  make([]uint64, 0, n),
		meta: make([]Meta, 0, n),
	}
}

// Len reports the number of live entries.
func (s *Store) Len() int { return len(s.meta) }

// Append adds one entry's summary at the next slot.
func (s *Store) Append(sum Summary) {
	off := uint32(len(s.arena))
	s.arena = appendSpan(s.arena, sum.VLabels)
	s.arena = appendSpan(s.arena, sum.ELabels)
	s.sig = append(s.sig, sigOf(sum))
	s.meta = append(s.meta, Meta{Off: off, V: uint32(sum.V), E: uint32(sum.E)})
}

// spanBytes measures the arena extent of entry slot.
func (s *Store) spanBytes(slot int) int {
	m := s.meta[slot]
	end := spanEnd(s.arena, spanEnd(s.arena, m.Off, int(m.V)), int(m.E))
	return int(end - m.Off)
}

// RemoveAt swap-removes the entry at slot, mirroring the shard's
// entry-slice semantics: the last entry moves into slot. The victim's
// span bytes become dead arena space; sig/meta are republished so
// previously handed-out Views stay valid.
func (s *Store) RemoveAt(slot int) {
	n := len(s.meta)
	s.dead += s.spanBytes(slot)
	fs := make([]uint64, n-1)
	copy(fs, s.sig[:n-1])
	fm := make([]Meta, n-1)
	copy(fm, s.meta[:n-1])
	if slot != n-1 {
		fs[slot] = s.sig[n-1]
		fm[slot] = s.meta[n-1]
	}
	s.sig, s.meta = fs, fm
}

// ReplaceAt swaps a new summary into slot (same ID, new graph). The old
// span goes dead; the new one appends to the arena.
func (s *Store) ReplaceAt(slot int, sum Summary) {
	s.dead += s.spanBytes(slot)
	off := uint32(len(s.arena))
	s.arena = appendSpan(s.arena, sum.VLabels)
	s.arena = appendSpan(s.arena, sum.ELabels)
	fs := make([]uint64, len(s.sig))
	copy(fs, s.sig)
	fm := make([]Meta, len(s.meta))
	copy(fm, s.meta)
	fs[slot] = sigOf(sum)
	fm[slot] = Meta{Off: off, V: uint32(sum.V), E: uint32(sum.E)}
	s.sig, s.meta = fs, fm
}

// arenaCompactMinDead keeps compaction from churning on small buckets:
// below 4 KiB of dead space the copy isn't worth it regardless of ratio.
const arenaCompactMinDead = 1 << 12

// MaybeCompact rewrites the arena when dead space passes the threshold
// (≥ 4 KiB dead and dead ≥ live). Returns whether a compaction ran.
func (s *Store) MaybeCompact() bool {
	if s.dead < arenaCompactMinDead || 2*s.dead < len(s.arena) {
		return false
	}
	s.Compact()
	return true
}

// Compact republishes a fresh arena holding only live spans (relocated
// verbatim — spans are self-contained) and fresh metas pointing into it.
func (s *Store) Compact() {
	fresh := make([]byte, 0, len(s.arena)-s.dead)
	fm := make([]Meta, len(s.meta))
	for i, m := range s.meta {
		end := spanEnd(s.arena, spanEnd(s.arena, m.Off, int(m.V)), int(m.E))
		fm[i] = Meta{Off: uint32(len(fresh)), V: m.V, E: m.E}
		fresh = append(fresh, s.arena[m.Off:end]...)
	}
	s.arena = fresh
	s.meta = fm
	s.dead = 0
	s.compactions++
}

// Mem reports the store's memory footprint, column by column.
func (s *Store) Mem() MemStats {
	return MemStats{
		Entries:     len(s.meta),
		SigBytes:    int64(8 * len(s.sig)),
		MetaBytes:   int64(12 * len(s.meta)),
		ArenaBytes:  int64(len(s.arena)),
		DeadBytes:   int64(s.dead),
		Compactions: s.compactions,
	}
}

// MemStats is the prefilter memory footprint surfaced through /v1/stats;
// see the server package for the JSON field docs.
type MemStats struct {
	Entries     int
	SigBytes    int64
	MetaBytes   int64
	ArenaBytes  int64
	DeadBytes   int64
	Compactions uint64
}

// Add accumulates o into m (per-bucket stats into a database total).
func (m *MemStats) Add(o MemStats) {
	m.Entries += o.Entries
	m.SigBytes += o.SigBytes
	m.MetaBytes += o.MetaBytes
	m.ArenaBytes += o.ArenaBytes
	m.DeadBytes += o.DeadBytes
	m.Compactions += o.Compactions
}

// View is an immutable snapshot of a Store, safe for concurrent scans
// while the store keeps mutating (arena append-only, sig/meta
// copy-on-write, compaction republishes fresh slices).
type View struct {
	Sig   []uint64
	Meta  []Meta
	Arena []byte
}

// View snapshots the store; the caller must hold the bucket lock (any
// mode) for the read of the three slice headers.
func (s *Store) View() View { return View{Sig: s.sig, Meta: s.meta, Arena: s.arena} }

// Len reports the number of entries in the snapshot.
func (v View) Len() int { return len(v.Meta) }

// SummaryOf decodes entry slot back into Summary form — the
// diagnostic/test inverse of Append.
func (v View) SummaryOf(slot int) Summary {
	m := v.Meta[slot]
	vl, end := decodeSpan(v.Arena, m.Off, int(m.V))
	el, _ := decodeSpan(v.Arena, end, int(m.E))
	return Summary{V: int(m.V), E: int(m.E), VLabels: vl, ELabels: el}
}

// Tier names the filter layer that proves a pair violates GED ≤ τ̂.
type Tier uint8

const (
	TierNone   Tier = iota // no layer prunes: the pair survives
	TierSize               // max(|ΔV|, |ΔE|) > τ̂
	TierLabel              // vertex- plus edge-label multiset distance > τ̂
	TierBranch             // ⌈GBD/2⌉ > τ̂
)

// Tier classifies slot against a prepared query: the first layer — size,
// then labels, then branches — whose lower bound exceeds tau, evaluated
// exactly from the arena spans, or TierNone when the pair survives all
// three. The prune decision is PairPrunable's, bit for bit.
func (v *View) Tier(q *QueryPre, qBranches branch.IDs, e *db.Entry, slot, tau int) Tier {
	m := v.Meta[slot]
	if d := q.Sum.V - int(m.V); d > tau || -d > tau {
		return TierSize
	}
	if d := q.Sum.E - int(m.E); d > tau || -d > tau {
		return TierSize
	}
	vd, end := spanDistance(q.Sum.VLabels, v.Arena, m.Off, int(m.V))
	if vd > tau {
		return TierLabel
	}
	ed, _ := spanDistance(q.Sum.ELabels, v.Arena, end, int(m.E))
	if vd+ed > tau {
		return TierLabel
	}
	// ⌈GBD/2⌉ > τ̂ ⇔ |B∩B| < max{|V1|,|V2|} − 2τ̂: the scorers' bounded
	// merge answers it without finishing a merge that is already lost.
	if _, ok := branch.IntersectAtLeastIDs(qBranches, e.Branches, max(len(qBranches), len(e.Branches))-2*tau); !ok {
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
func PrepareQuery(g *graph.Graph) QueryPre { return NewQueryPre(Summarize(g)) }

// NewQueryPre signs an existing summary.
func NewQueryPre(s Summary) QueryPre { return QueryPre{Sig: sigOf(s), Sum: s} }

// Prunable reports whether slot provably violates GED ≤ tau against a
// prepared query — the signature word first, the exact arena-based
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
