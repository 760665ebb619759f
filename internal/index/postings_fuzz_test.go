package index

import (
	"math/bits"
	"slices"
	"testing"

	"gsim/internal/branch"
	"gsim/internal/db"
)

// FuzzCandidates drives a shard's postings through the input's op stream
// — appends, swap-removes, replacements, and rebuilds that snapshot the
// shard, keep logging while further ops land, and install with the log
// carried over — over small branch multisets, and after every op plans
// the input's query and marks its candidates segment by segment, at
// several segment lengths. The candidates must contain every slot that
// shares at least minShared branches with the query at a size inside
// [lo, lo+span] (brute force), and every slot when minShared ≤ 0. Query
// bytes from 240 up are ephemeral IDs, which no list holds. The seeds
// under testdata/fuzz/FuzzCandidates are an empty shard, appends only,
// churn across an in-flight rebuild, a query past every list, and a
// swap-remove after a rebuild.
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
			snap    []*db.Entry
			log     *Postings
		)
		check := func() {
			var ps Probes
			ps.Reset(1)
			ps.Plan(0, &post, len(entries), q, need)
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
						size, common := len(e.Branches), branch.IntersectSizeIDs(q, e.Branches)
						worth := need.MinShared <= 0 || common >= need.MinShared && size >= need.SizeLo && size <= need.SizeHi
						if marked := words[(s-from)>>6]>>((s-from)&63)&1 == 1; worth && !marked {
							t.Fatalf("segment length %d: slot %d (%v, size %d) shares %d with %v but is no candidate for %+v",
								seg, s, e.Branches, size, common, q, need)
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
		multiset := func() branch.IDs {
			m := make(branch.IDs, next()%8)
			for i := range m {
				m[i] = uint32(next() % 12)
			}
			slices.Sort(m)
			return m
		}
		for k < len(ops) {
			switch op := next() % 6; {
			case op <= 1:
				entries = append(entries, &db.Entry{Branches: multiset()})
			case op == 2 && len(entries) > 0:
				n, slot := len(entries), next()%len(entries)
				entries[slot] = entries[n-1]
				entries = entries[:n-1]
				post.Removed(slot, n)
				if log != nil {
					log.Removed(slot, n)
				}
			case op == 3 && len(entries) > 0:
				slot := next() % len(entries)
				entries[slot] = &db.Entry{Branches: multiset()}
				post.Replaced(slot)
				if log != nil {
					log.Replaced(slot)
				}
			case op == 4 && log == nil:
				snap = slices.Clone(entries)
				l := NewLog(len(snap))
				log = &l
			case op == 5 && log != nil:
				post, log = BuildPostings(snap).Carry(*log), nil
			}
			check()
		}
		check()
	})
}
