package index

import (
	"math/bits"
	"slices"
	"testing"

	"gsim/internal/branch"
	"gsim/internal/db"
	"gsim/internal/graph"
)

// FuzzCandidates drives a shard's postings through the input's op stream
// — appends, swap-removes, replacements, and rebuilds that snapshot the
// shard, let further ops land, and install the lists built from the
// snapshot rebased on the shard as it then is — over small branch
// multisets, and after every op plans the input's query and marks its
// candidates segment by segment, at several segment lengths. The
// candidates must contain every slot that shares at least minShared
// branches with the query at a size inside [lo, lo+span] (brute force),
// and every slot when minShared ≤ 0. Query bytes from 240 up are
// ephemeral IDs, which no list holds. The seeds
// under testdata/fuzz/FuzzCandidates are an empty shard, appends only,
// churn across an in-flight rebuild, a query past every list, a
// swap-remove after a rebuild, and a shard that shrinks below its
// snapshot's length and grows past it before the install.
func FuzzCandidates(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops, query []byte, shared, lo, span uint8) {
		q := make(branch.IDs, len(query))
		for i, c := range query {
			q[i] = uint32(c % 12)
			if c >= 240 {
				q[i] = db.EphemeralBranchBase + uint32(c)
			}
		}
		slices.Sort(q)
		need := Need{MinShared: int(shared%8) - 1, SizeLo: int(lo % 8), SizeHi: int(lo%8) + int(span)}

		var (
			entries []*db.Entry
			post    Postings
			snap    []*db.Entry // the in-flight rebuild's snapshot, nil when none
		)
		check := func() {
			var ps Probes
			ps.Reset(1)
			ps.Plan(0, &post, sizesOf(entries), q, need)
			n := len(entries)
			for _, seg := range []int{1, 7, 64, 130} {
				buf := make([]uint64, (seg+63)/64)
				for from := 0; from < n; from += seg {
					to := min(from+seg, n)
					words := buf[:(to-from+63)/64]
					set := ps.View(0).Mark(words, from, to)
					count := 0
					for i, w := range words {
						count += bits.OnesCount64(w)
						if i == len(words)-1 && (to-from)&63 != 0 && w>>((to-from)&63) != 0 {
							t.Fatalf("segment [%d, %d) marked bits past its end: %#x", from, to, w)
						}
					}
					if count != set {
						t.Fatalf("segment [%d, %d): Mark reported %d candidates, set %d", from, to, set, count)
					}
					for s := from; s < to; s++ {
						e := entries[s]
						size, common := e.Branches.Len(), branch.IntersectSizeIDs(q, e.Branches)
						worth := need.MinShared <= 0 || common >= need.MinShared && size >= need.SizeLo && size <= need.SizeHi
						if marked := words[(s-from)>>6]>>((s-from)&63)&1 == 1; worth && !marked {
							t.Fatalf("segment length %d: slot %d (%v, size %d) shares %d with %v but is no candidate for %+v",
								seg, s, e.Branches.AppendTo(nil), size, common, q, need)
						}
					}
				}
			}
		}

		k := 0
		next := func() int {
			if k >= len(ops) {
				return 0
			}
			k++
			return int(ops[k-1])
		}
		multiset := func() branch.Coded {
			m := make(branch.IDs, next()%8)
			for i := range m {
				m[i] = uint32(next() % 12)
			}
			slices.Sort(m)
			return branch.Encode(m)
		}
		for k < len(ops) {
			switch op := next() % 6; {
			case op <= 1:
				entries = append(entries, db.NewEntry(0, &graph.Graph{}, multiset()))
			case op == 2 && len(entries) > 0:
				n, slot := len(entries), next()%len(entries)
				entries[slot] = entries[n-1]
				entries = entries[:n-1]
				post.Removed(slot, n)
			case op == 3 && len(entries) > 0:
				slot := next() % len(entries)
				entries[slot] = db.NewEntry(0, &graph.Graph{}, multiset())
				post.Replaced(slot)
			case op == 4 && snap == nil:
				snap = append(make([]*db.Entry, 0, len(entries)), entries...)
			case op == 5 && snap != nil:
				post, snap = BuildPostings(snap).Rebase(snap, entries), nil
			}
			check()
		}
		check()
	})
}
