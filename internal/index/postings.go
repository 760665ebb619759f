// Branch postings. A branch is a 1-star q-gram, so the prefix-filter rule
// of q-gram indexes (MSQ-Index) holds for branch multisets exactly: if a
// graph shares at least t branches with a query of |Bq| branches, it must
// share one of any |Bq| − t + 1 query branch occurrences. A scan that
// knows the least intersection t any graph worth deciding must reach —
// the scorer's size-window floor, or the prefilter's branch tier — reads
// the posting lists of the query's rarest branches covering that many
// occurrences and decides every other slot without loading it. Each
// posting carries its graph's size, so the size bound the scan also knows
// is applied before a slot becomes a candidate.
//
// Postings is one shard's inverted index from branch ID to the ascending
// slots whose entry holds that branch, built at a shard length L0, plus
// what changed since: the slots below L0 whose entry was swapped in or
// replaced, and the tail of slots appended since. A stale posting is a
// false positive at worst, and every candidate is decided exactly, so the
// index is admissible under any mutation history.
//
// Concurrency contract (internal/shard's snapshot discipline): the lists
// are immutable once built and the change list is copy-on-write, so a
// Postings value copied under the shard lock is a snapshot a scan can
// read while the shard keeps mutating.
package index

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"gsim/internal/branch"
	"gsim/internal/db"
)

// Postings is a shard's branch postings. The zero value has no lists and
// makes every slot a candidate.
type Postings struct {
	// off, slots and sizes are the lists in CSR form: the slots holding
	// branch ID b are slots[off[b]:off[b+1]], ascending, each slot once,
	// and sizes[k] is the size of slots[k]'s graph, capped at MaxUint16.
	off, slots []uint32
	sizes      []uint16
	// changed holds, sorted, the slots below tail whose entry is not the
	// one the lists were built from; every slot at or past tail is new.
	changed []uint32
	tail    int
}

// BuildPostings indexes entries by slot: a counting sort over branch IDs,
// two passes over the branch multisets.
func BuildPostings(entries []*db.Entry) Postings {
	top := -1
	for _, e := range entries {
		if n := len(e.Branches); n > 0 {
			top = max(top, int(e.Branches[n-1])) // multisets are sorted
		}
	}
	// A multiset lists a branch once per occurrence, a list a slot once.
	// off[b+2] counts the entries holding b; the prefix sum then leaves
	// off[b+1] at the start of b's list, which the fill advances to its
	// end, so off[b] ends up at the start.
	off := make([]uint32, top+3)
	for _, e := range entries {
		for i, id := range e.Branches {
			if i == 0 || id != e.Branches[i-1] {
				off[id+2]++
			}
		}
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	slots := make([]uint32, off[len(off)-1])
	sizes := make([]uint16, len(slots))
	for slot, e := range entries {
		size := uint16(min(len(e.Branches), math.MaxUint16))
		for i, id := range e.Branches {
			if i == 0 || id != e.Branches[i-1] {
				slots[off[id+1]], sizes[off[id+1]] = uint32(slot), size
				off[id+1]++
			}
		}
	}
	return Postings{off: off[:top+2], slots: slots, sizes: sizes, tail: len(entries)}
}

// NewLog starts the change log of a rebuild whose snapshot holds n slots:
// the changes made after the snapshot, which the rebuilt lists cannot see
// and Carry hands over when they are installed.
func NewLog(n int) Postings { return Postings{tail: n} }

// Carry returns p with log's change list and tail: the lists built from a
// snapshot, made current by the changes logged since it was taken.
func (p Postings) Carry(log Postings) Postings {
	p.changed, p.tail = log.changed, log.tail
	return p
}

// Removed records a swap-remove at slot of a shard that held n slots: the
// last entry moves into slot, and the shard shrinks to n − 1.
func (p *Postings) Removed(slot, n int) {
	if slot < n-1 {
		p.change(slot)
	}
	p.tail = min(p.tail, n-1)
}

// Replaced records a new entry at slot.
func (p *Postings) Replaced(slot int) { p.change(slot) }

// change adds slot to the change list by copy, unless it is a tail slot
// or already listed.
func (p *Postings) change(slot int) {
	if slot >= p.tail {
		return
	}
	i, found := slices.BinarySearch(p.changed, uint32(slot))
	if found {
		return
	}
	c := make([]uint32, len(p.changed)+1)
	copy(c, p.changed[:i])
	c[i] = uint32(slot)
	copy(c[i+1:], p.changed[i:])
	p.changed = c
}

// Stale counts the slots of a shard of n slots that are candidates for
// every query: the changed ones and the tail.
func (p *Postings) Stale(n int) int { return len(p.changed) + max(0, n-p.tail) }

// list returns the bounds in slots of branch id's list; an ID the lists
// never saw — interned after the build, or a query's ephemeral one — has
// an empty one.
func (p *Postings) list(id uint32) (lo, hi uint32) {
	if int(id)+1 >= len(p.off) {
		return 0, 0
	}
	return p.off[id], p.off[id+1]
}

// Need is what a graph must have to be worth a scan's reading: at least
// MinShared branches in common with the query, and a size (its vertex
// count, one branch per vertex) in [SizeLo, SizeHi]. The zero Need asks
// nothing, so every slot is a candidate.
type Need struct {
	MinShared, SizeLo, SizeHi int
}

// Probe is one query's candidate generator over one Postings snapshot:
// the lists it picked and the size window, or every slot.
type Probe struct {
	p              *Postings
	lists          [][2]uint32 // bounds in p.slots
	sizeLo, sizeHi uint16      // the Need's window, capped as the sizes are
	all            bool
}

// Probes holds a query's probes, one per shard view, and the scratch
// they are planned in; reusable from query to query.
type Probes struct {
	views []Probe
	runs  []run
	bound int // Σ over the planned views of the candidates Mark can set
}

// run is one distinct query branch: its ID, its multiplicity in the query
// and the length of its list in the postings being planned against.
type run struct {
	id       uint32
	mult, df int
}

// Reset readies ps for a cut of n views.
func (ps *Probes) Reset(n int) {
	if cap(ps.views) < n {
		ps.views = make([]Probe, n)
	}
	ps.views, ps.bound = ps.views[:n], 0
}

// View returns the probe of view i.
func (ps *Probes) View(i int) *Probe { return &ps.views[i] }

// Bound is at least the number of candidates the planned probes name:
// their lists' lengths plus the slots stale in every view.
func (ps *Probes) Bound() int { return ps.bound }

// Plan readies the probe of view i, a view of n slots with postings p,
// for query q and what a graph needs to be worth reading. It picks the
// query's distinct branches in ascending list length until they cover
// |q| − MinShared + 1 occurrences, so a slot on none of the picked lists
// shares at most MinShared − 1. An ephemeral branch's list is empty, so
// it is picked first and costs nothing. MinShared ≤ 0 makes every slot a
// candidate.
func (ps *Probes) Plan(i int, p *Postings, n int, q branch.IDs, need Need) {
	pr := &ps.views[i]
	pr.p, pr.lists, pr.all = p, pr.lists[:0], need.MinShared <= 0
	if pr.all {
		ps.bound += n
		return
	}
	// A size capped at MaxUint16 is in the capped window whenever the
	// true size can be in the true one.
	pr.sizeLo = uint16(min(max(need.SizeLo, 0), math.MaxUint16))
	pr.sizeHi = uint16(min(max(need.SizeHi, 0), math.MaxUint16))
	ps.bound += p.Stale(n)
	runs := ps.runs[:0]
	for k := 0; k < len(q); {
		j := k + 1
		for j < len(q) && q[j] == q[k] {
			j++
		}
		lo, hi := p.list(q[k])
		runs = append(runs, run{id: q[k], mult: j - k, df: int(hi - lo)})
		k = j
	}
	slices.SortStableFunc(runs, func(a, b run) int { return cmp.Compare(a.df, b.df) })
	for k, cover := 0, 0; k < len(runs) && cover < len(q)-need.MinShared+1; k++ {
		lo, hi := p.list(runs[k].id)
		pr.lists = append(pr.lists, [2]uint32{lo, hi})
		cover += runs[k].mult
		ps.bound += runs[k].df
	}
	ps.runs = runs
}

// Mark sets bit s − lo of words for every candidate slot s in [lo, hi):
// the picked lists' slots below the tail whose size is in the window, the
// changed slots, and the tail. It clears words first (which must hold
// (hi−lo+63)/64 of them) and returns how many bits it set.
func (pr *Probe) Mark(words []uint64, lo, hi int) int {
	clear(words)
	if pr.all {
		setRange(words, 0, hi-lo)
		return hi - lo
	}
	p := pr.p
	if end := min(hi, p.tail); lo < end {
		for _, l := range pr.lists {
			slots, sizes := p.slots[l[0]:l[1]], p.sizes[l[0]:l[1]]
			k, _ := slices.BinarySearch(slots, uint32(lo))
			for ; k < len(slots) && int(slots[k]) < end; k++ {
				if sz := sizes[k]; sz >= pr.sizeLo && sz <= pr.sizeHi {
					i := int(slots[k]) - lo
					words[i>>6] |= 1 << (i & 63)
				}
			}
		}
		k, _ := slices.BinarySearch(p.changed, uint32(lo))
		for ; k < len(p.changed) && int(p.changed[k]) < end; k++ {
			i := int(p.changed[k]) - lo
			words[i>>6] |= 1 << (i & 63)
		}
	}
	if from := max(lo, p.tail); from < hi {
		setRange(words, from-lo, hi-lo)
	}
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	return n
}

// setRange sets bits [from, to) of words.
func setRange(words []uint64, from, to int) {
	for ; from < to && from&63 != 0; from++ {
		words[from>>6] |= 1 << (from & 63)
	}
	for ; from+64 <= to; from += 64 {
		words[from>>6] = ^uint64(0)
	}
	for ; from < to; from++ {
		words[from>>6] |= 1 << (from & 63)
	}
}
