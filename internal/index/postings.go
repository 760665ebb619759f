// Branch postings. A branch is a 1-star q-gram, so the prefix-filter rule
// of q-gram indexes (MSQ-Index) holds for branch multisets exactly: if a
// graph shares at least t branches with a query of |Bq| branches, it must
// share one of any |Bq| − t + 1 query branch occurrences. A scan that
// knows the least intersection t any graph worth deciding must reach —
// the scorer's size-window floor, or the prefilter's branch tier — reads
// the posting lists of the query's rarest branches covering that many
// occurrences and decides every other slot without loading it. The size
// bound the scan also knows is applied, from the shard's size column,
// before a slot becomes a candidate.
//
// Postings is one shard's inverted index from branch ID to the ascending
// slots whose entry holds that branch, built at a shard length L0, plus
// what changed since: the slots below L0 whose entry was swapped in or
// replaced, and the tail of slots appended since. A slot below the tail
// that is not changed still holds the entry its postings were built from,
// so the shard's current size column is that entry's size. A stale
// posting is a false positive at worst, and every candidate is decided
// exactly, so the index is admissible under any mutation history.
//
// Each list is coded as MSQ-Index codes its q-gram lists: the uvarint
// gaps between its ascending slots (the first slot is its gap from 0),
// about a byte and a half per posting. The posting counts, which Plan
// reads for every query branch, sit in a column of their own. Plan decodes
// each list it picks once per query, keeping the slots whose size is in
// the window, so Mark, which runs once per scanned segment, never decodes.
//
// Concurrency contract (internal/shard's snapshot discipline): the lists
// are immutable once built and the change list is copy-on-write, so a
// Postings value copied under the shard lock is a snapshot a scan can
// read while the shard keeps mutating.
package index

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/bits"
	"slices"

	"gsim/internal/branch"
	"gsim/internal/db"
)

// Postings is a shard's branch postings. The zero value has no lists and
// makes every slot a candidate.
type Postings struct {
	// off, cnt and data are the lists: branch ID b's list is
	// data[off[b]:off[b+1]] and holds cnt[b] postings, none when no entry
	// held b.
	off, cnt []uint32
	data     []byte
	// changed holds, sorted, the slots below tail whose entry is not the
	// one the lists were built from; every slot at or past tail is new.
	changed []uint32
	tail    int
}

// NewPostings indexes entries by slot, every branch ID of theirs below
// universe (the branch dictionary's, read after the entries were
// interned), in two passes over their branch multisets: the first counts
// each branch's postings and the bytes of their gaps, which lays the
// lists out, and the second writes them.
func NewPostings(entries []*db.Entry, universe int) Postings {
	var stack [128]uint32
	ids := branch.IDs(stack[:0])
	// Per branch ID: its posting count, its list's offset, the slot of
	// its last posting, and the bytes of its gaps and then its write
	// offset. A multiset lists a branch once per occurrence, a list a slot
	// once; the first posting's gap is its slot.
	n := universe
	cols, work := make([]uint32, 2*n+1), make([]uint32, 2*n)
	off, cnt := cols[:n+1], cols[n+1:]
	last, at := work[:n], work[n:]
	for slot, e := range entries {
		ids = e.Branches.AppendTo(ids[:0])
		for i, id := range ids {
			if i == 0 || id != ids[i-1] {
				at[id] += uint32(uvarintLen(uint32(slot) - last[id]))
				last[id] = uint32(slot)
				cnt[id]++
			}
		}
	}
	for b := range cnt {
		off[b+1] = off[b] + at[b]
		at[b], last[b] = off[b], 0
	}
	data := make([]byte, off[n])
	for slot, e := range entries {
		ids = e.Branches.AppendTo(ids[:0])
		for i, id := range ids {
			if i == 0 || id != ids[i-1] {
				at[id] += uint32(binary.PutUvarint(data[at[id]:], uint64(uint32(slot)-last[id])))
				last[id] = uint32(slot)
			}
		}
	}
	return Postings{off: off, cnt: cnt, data: data, tail: len(entries)}
}

func uvarintLen(x uint32) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
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

// df is the posting count of branch id's list; an ID the lists never
// saw — interned after the build, or a query's ephemeral one — has none.
func (p *Postings) df(id uint32) int {
	if int(id) >= len(p.cnt) {
		return 0
	}
	return int(p.cnt[id])
}

// appendList appends to dst the slots of branch id's list below the tail
// whose size, read from sizes, is in [lo, hi], ascending. A slot below
// the tail that is not changed holds the entry the lists were built from,
// so sizes holds its size; a changed one is a candidate whatever its
// size.
func (p *Postings) appendList(dst []uint32, id uint32, sizes []uint32, lo, hi uint32) []uint32 {
	list := p.data[p.off[id]:p.off[id+1]]
	slot := uint32(0)
	for at := 0; at < len(list); {
		gap := uint32(list[at])
		if at++; gap >= 0x80 {
			x, n := binary.Uvarint(list[at-1:])
			gap, at = uint32(x), at-1+n
		}
		if slot += gap; int(slot) >= p.tail {
			break
		}
		if sz := sizes[slot]; sz >= lo && sz <= hi {
			dst = append(dst, slot)
		}
	}
	return dst
}

// Need is what a graph must have to be worth a scan's reading: at least
// MinShared branches in common with the query, and a size (its vertex
// count, one branch per vertex) in [SizeLo, SizeHi]. The zero Need asks
// nothing, so every slot is a candidate.
type Need struct {
	MinShared, SizeLo, SizeHi int
}

// Probe is one query's candidate generator over one Postings snapshot:
// the slots of the lists it picked that are in the size window, or every
// slot.
type Probe struct {
	p     *Postings
	slots []uint32    // the picked lists' slots in the window, list by list
	lists [][2]uint32 // each picked list's bounds in slots
	all   bool
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

// Plan readies the probe of view i, a view with postings p and size
// column sizes (one per slot), for query q and what a graph needs to be
// worth reading. It picks the query's distinct branches in ascending list
// length until they cover |q| − MinShared + 1 occurrences, so a slot on
// none of the picked lists shares at most MinShared − 1, and decodes the
// picked lists. An ephemeral branch's list is empty, so it is picked
// first and costs nothing. MinShared ≤ 0 makes every slot a candidate.
func (ps *Probes) Plan(i int, p *Postings, sizes []uint32, q branch.IDs, need Need) {
	pr := &ps.views[i]
	pr.p, pr.slots, pr.lists, pr.all = p, pr.slots[:0], pr.lists[:0], need.MinShared <= 0
	n := len(sizes)
	if pr.all {
		ps.bound += n
		return
	}
	lo := uint32(min(max(need.SizeLo, 0), math.MaxUint32))
	hi := uint32(min(max(need.SizeHi, 0), math.MaxUint32))
	ps.bound += p.Stale(n)
	runs := ps.runs[:0]
	for k := 0; k < len(q); {
		j := k + 1
		for j < len(q) && q[j] == q[k] {
			j++
		}
		runs = append(runs, run{id: q[k], mult: j - k, df: p.df(q[k])})
		k = j
	}
	slices.SortStableFunc(runs, func(a, b run) int { return cmp.Compare(a.df, b.df) })
	for k, cover := 0, 0; k < len(runs) && cover < len(q)-need.MinShared+1; k++ {
		if runs[k].df > 0 {
			from := len(pr.slots)
			pr.slots = p.appendList(pr.slots, runs[k].id, sizes, lo, hi)
			pr.lists = append(pr.lists, [2]uint32{uint32(from), uint32(len(pr.slots))})
		}
		cover += runs[k].mult
		ps.bound += runs[k].df
	}
	ps.runs = runs
}

// Mark sets bit s − lo of words for every candidate slot s in [lo, hi):
// the picked lists' slots in the window, the changed slots, and the tail.
// It clears words first (which must hold (hi−lo+63)/64 of them) and
// returns how many bits it set.
func (pr *Probe) Mark(words []uint64, lo, hi int) int {
	clear(words)
	if pr.all {
		setRange(words, 0, hi-lo)
		return hi - lo
	}
	p := pr.p
	if end := min(hi, p.tail); lo < end {
		for _, l := range pr.lists {
			slots := pr.slots[l[0]:l[1]]
			k, _ := slices.BinarySearch(slots, uint32(lo))
			for ; k < len(slots) && int(slots[k]) < end; k++ {
				i := int(slots[k]) - lo
				words[i>>6] |= 1 << (i & 63)
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
