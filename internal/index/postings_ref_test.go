package index

import (
	"cmp"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"gsim/internal/branch"
	"gsim/internal/db"
	"gsim/internal/graph"
)

// refLists is the postings layout the coded lists replaced, kept as the
// oracle they are held to: every list's slots as uint32s in CSR form, and
// beside each posting the size of its graph when the lists were built,
// capped at MaxUint16.
type refLists struct {
	off, slots []uint32
	sizes      []uint16
}

// BuildPostings is NewPostings for tests that hold entries but no branch
// dictionary: the universe is one past the largest branch ID the entries
// carry.
func BuildPostings(entries []*db.Entry) Postings {
	universe := 0
	for _, e := range entries {
		if ids := e.Branches.AppendTo(nil); len(ids) > 0 {
			universe = max(universe, int(ids[len(ids)-1])+1) // multisets are sorted
		}
	}
	return NewPostings(entries, universe)
}

func buildRef(entries []*db.Entry) refLists {
	var r refLists
	lists := map[uint32][]uint32{}
	sizes := map[uint32][]uint16{}
	top := -1
	for slot, e := range entries {
		ids := e.Branches.AppendTo(nil)
		for i, id := range ids {
			if i > 0 && id == ids[i-1] {
				continue
			}
			lists[id] = append(lists[id], uint32(slot))
			sizes[id] = append(sizes[id], uint16(min(len(ids), math.MaxUint16)))
			top = max(top, int(id))
		}
	}
	r.off = make([]uint32, top+2)
	for b := 0; b <= top; b++ {
		r.slots = append(r.slots, lists[uint32(b)]...)
		r.sizes = append(r.sizes, sizes[uint32(b)]...)
		r.off[b+1] = uint32(len(r.slots))
	}
	return r
}

// refMark is Plan and Mark as they ran over refLists: the same picks of
// the query's rarest lists, the size window applied from the sizes stored
// with the postings, and p's change log and tail for the rest.
func refMark(r *refLists, p *Postings, q branch.IDs, need Need, words []uint64, lo, hi int) int {
	clear(words)
	if need.MinShared <= 0 {
		setRange(words, 0, hi-lo)
		return hi - lo
	}
	list := func(id uint32) (uint32, uint32) {
		if int(id)+1 >= len(r.off) {
			return 0, 0
		}
		return r.off[id], r.off[id+1]
	}
	var runs []run
	for k := 0; k < len(q); {
		j := k + 1
		for j < len(q) && q[j] == q[k] {
			j++
		}
		a, b := list(q[k])
		runs = append(runs, run{id: q[k], mult: j - k, df: int(b - a)})
		k = j
	}
	slices.SortStableFunc(runs, func(a, b run) int { return cmp.Compare(a.df, b.df) })
	sizeLo := uint16(min(max(need.SizeLo, 0), math.MaxUint16))
	sizeHi := uint16(min(max(need.SizeHi, 0), math.MaxUint16))
	if end := min(hi, p.tail); lo < end {
		for k, cover := 0, 0; k < len(runs) && cover < len(q)-need.MinShared+1; k++ {
			a, b := list(runs[k].id)
			cover += runs[k].mult
			slots, sizes := r.slots[a:b], r.sizes[a:b]
			i, _ := slices.BinarySearch(slots, uint32(lo))
			for ; i < len(slots) && int(slots[i]) < end; i++ {
				if sz := sizes[i]; sz >= sizeLo && sz <= sizeHi {
					s := int(slots[i]) - lo
					words[s>>6] |= 1 << (s & 63)
				}
			}
		}
		i, _ := slices.BinarySearch(p.changed, uint32(lo))
		for ; i < len(p.changed) && int(p.changed[i]) < end; i++ {
			s := int(p.changed[i]) - lo
			words[s>>6] |= 1 << (s & 63)
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

// sizesOf is the size column of a shard holding entries.
func sizesOf(entries []*db.Entry) []uint32 {
	sizes := make([]uint32, len(entries))
	for i, e := range entries {
		sizes[i] = uint32(e.Branches.Len())
	}
	return sizes
}

// FuzzCodedPostings holds Mark over the coded lists to the layout they
// replaced (refLists), bit for bit. A seeded shard of up to 1,023 graphs
// over a 16-branch universe makes lists hundreds of postings long; the ops
// then remove, replace and append graphs, which log changes the oracle
// reads too and move the size column away from the sizes the oracle
// stored at build time. The query is planned and marked in chunks whose
// lengths cuts gives, from any starting slot.
func FuzzCodedPostings(f *testing.F) {
	f.Add(uint64(1), uint16(0), []byte{}, []byte{1, 2}, uint8(2), uint8(0), uint8(9), []byte{})
	f.Add(uint64(2), uint16(300), []byte{}, []byte{0, 0, 3, 5}, uint8(3), uint8(1), uint8(6), []byte{63, 1, 200})
	f.Add(uint64(3), uint16(700), []byte{2, 9, 3, 4, 5, 1, 0, 2}, []byte{1, 4, 7, 250}, uint8(4), uint8(2), uint8(4), []byte{64, 129, 0, 7})
	f.Add(uint64(4), uint16(1023), []byte{3, 100, 2, 50}, []byte{2, 2, 2, 9}, uint8(1), uint8(0), uint8(12), []byte{255})
	f.Fuzz(func(t *testing.T, seed uint64, count uint16, ops, query []byte, shared, lo, span uint8, cuts []byte) {
		rng := rand.New(rand.NewSource(int64(seed)))
		multiset := func() branch.Coded {
			m := make(branch.IDs, rng.Intn(12))
			for i := range m {
				m[i] = uint32(rng.Intn(16))
			}
			slices.Sort(m)
			return branch.Encode(m)
		}
		entries := make([]*db.Entry, count%1024)
		for i := range entries {
			entries[i] = db.NewEntry(0, &graph.Graph{}, multiset())
		}
		post, ref := BuildPostings(entries), buildRef(entries)
		for k := 0; k+1 < len(ops); k += 2 {
			n := len(entries)
			switch arg := int(ops[k+1]); {
			case ops[k]%3 == 0 && n > 0:
				slot := arg % n
				entries[slot] = entries[n-1]
				entries = entries[:n-1]
				post.Removed(slot, n)
			case ops[k]%3 == 1 && n > 0:
				slot := arg % n
				entries[slot] = db.NewEntry(0, &graph.Graph{}, multiset())
				post.Replaced(slot)
			default:
				entries = append(entries, db.NewEntry(0, &graph.Graph{}, multiset()))
			}
		}
		q := make(branch.IDs, len(query))
		for i, c := range query {
			q[i] = uint32(c % 18) // 16 and 17 are on no list
			if c >= 240 {
				q[i] = db.EphemeralBranchBase + uint32(c)
			}
		}
		slices.Sort(q)
		need := Need{MinShared: int(shared%8) - 1, SizeLo: int(lo % 12), SizeHi: int(lo%12) + int(span)}
		var ps Probes
		ps.Reset(1)
		ps.Plan(0, &post, sizesOf(entries), q, need)
		n := len(entries)
		start := 0
		if len(cuts) > 0 && n > 0 {
			start = int(cuts[0]) * 4 % n
		}
		for from, c := start, 0; from < n; c++ {
			seg := 64
			if len(cuts) > 0 {
				seg = 1 + 3*int(cuts[c%len(cuts)])
			}
			to := min(from+seg, n)
			got := make([]uint64, (to-from+63)/64)
			want := make([]uint64, len(got))
			gn := ps.View(0).Mark(got, from, to)
			wn := refMark(&ref, &post, q, need, want, from, to)
			if gn != wn || !slices.Equal(got, want) {
				t.Fatalf("[%d, %d) of %d slots, q %v, %+v: Mark set %d bits %x, reference %d bits %x",
					from, to, n, q, need, gn, got, wn, want)
			}
			from = to
		}
	})
}
