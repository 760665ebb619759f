package shard

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gsim/internal/branch"
	"gsim/internal/db"
	"gsim/internal/graph"
	"gsim/internal/index"
	"gsim/internal/telemetry"
	"gsim/internal/wal"
)

// checkColumns holds one cut to the column contract: ids, sizes and
// signatures run parallel to entries, slot for slot, every entry carries
// the span of its own graph, and ids ascend over the first Asc slots.
func checkColumns(t *testing.T, views []View) {
	t.Helper()
	for s, v := range views {
		if len(v.IDs) != len(v.Entries) || len(v.Sizes) != len(v.Entries) || v.Pre.Len() != len(v.Entries) {
			t.Fatalf("shard %d: %d ids, %d sizes, %d signatures for %d entries", s, len(v.IDs), len(v.Sizes), v.Pre.Len(), len(v.Entries))
		}
		if v.Asc < 0 || v.Asc > len(v.IDs) || !slices.IsSorted(v.IDs[:v.Asc]) || len(slices.Compact(slices.Clone(v.IDs[:v.Asc]))) != v.Asc {
			t.Fatalf("shard %d: ids %v do not ascend over the first %d slots", s, v.IDs, v.Asc)
		}
		for i, e := range v.Entries {
			if v.IDs[i] != e.ID || int(v.Sizes[i]) != e.Branches.Len() {
				t.Fatalf("shard %d slot %d: columns say (id %d, size %d), entry is (id %d, size %d)",
					s, i, v.IDs[i], v.Sizes[i], e.ID, e.Branches.Len())
			}
			g := e.G.Unpack()
			if want := index.PrepareQuery(g).Sig; v.Pre.Sig[i] != want {
				t.Fatalf("shard %d slot %d (graph %s): signature %#x, graph signs to %#x", s, i, e.G.Name, v.Pre.Sig[i], want)
			}
			if want := db.NewEntry(e.ID, g, branch.Coded{}).Labels; e.Labels != want {
				t.Fatalf("shard %d slot %d (graph %s): span %q, graph encodes to %q", s, i, e.G.Name, e.Labels, want)
			}
		}
	}
}

// checkStats compares the store's statistics with a recount of the
// stored graphs (ε labels do not count toward the alphabets).
func checkStats(t *testing.T, m *Map, when string) {
	t.Helper()
	var want db.Stats
	vl, el := map[graph.ID]bool{graph.Epsilon: true}, map[graph.ID]bool{graph.Epsilon: true}
	sumDeg := 0.0
	for _, e := range m.Ordered() {
		g := e.G.Unpack()
		want.Graphs++
		want.MaxV, want.MaxE = max(want.MaxV, g.NumVertices()), max(want.MaxE, g.NumEdges())
		sumDeg += g.AvgDegree()
		for v := 0; v < g.NumVertices(); v++ {
			vl[g.VertexLabel(v)] = true
		}
		for _, ed := range g.Edges() {
			el[ed.Label] = true
		}
	}
	want.LV, want.LE = len(vl)-1, len(el)-1
	if want.Graphs > 0 {
		want.AvgDegree = sumDeg / float64(want.Graphs)
	}
	got := m.Stats()
	if math.Abs(got.AvgDegree-want.AvgDegree) > 1e-9*max(1, want.AvgDegree) {
		t.Fatalf("%s: average degree %v, stored graphs say %v", when, got.AvgDegree, want.AvgDegree)
	}
	got.AvgDegree = want.AvgDegree
	if got != want {
		t.Fatalf("%s: stats %+v, stored graphs say %+v", when, got, want)
	}
}

// TestColumnsFollowMutations: through a random mix of adds, deletes,
// updates and batch commits, every cut's columns match its entries and
// the statistics match a recount after every op, and a cut once
// published never changes — columns included — whatever the store does
// afterwards.
func TestColumnsFollowMutations(t *testing.T) {
	type published struct {
		views   []View
		entries [][]*db.Entry
		ids     [][]uint64
		sizes   [][]uint32
		sigs    [][]uint64
	}
	for _, shards := range []int{1, 4} {
		rng := rand.New(rand.NewSource(int64(7 + shards)))
		m := New("t", shards)
		graphOf := func(i int) (name string, n int) { return fmt.Sprintf("g%d", i), 2 + rng.Intn(14) }
		var live []uint64
		var cuts []published
		for step := 0; step < 600; step++ {
			name, n := graphOf(step)
			g := chain(m.Dict(), name, n, "L")
			switch op := rng.Intn(10); {
			case op < 4 || len(live) == 0:
				id, _ := m.Add(g)
				live = append(live, id)
			case op < 7:
				k := rng.Intn(len(live))
				if ok, _ := m.Delete(live[k]); !ok {
					t.Fatalf("delete %d failed", live[k])
				}
				live = slices.Delete(live, k, k+1)
			case op < 9:
				if ok, _ := update(m, live[rng.Intn(len(live))], g); !ok {
					t.Fatal("update failed")
				}
			default:
				target := live[rng.Intn(len(live))]
				first, _, ok, _ := m.Commit(telemetry.OpCommit, []Mutation{{Op: wal.OpStore, P: m.Prepare(g)}, {Op: wal.OpUpdate, ID: target, P: m.Prepare(chain(m.Dict(), name+"u", 2+rng.Intn(14), "M"))}})
				if !ok {
					t.Fatal("commit failed")
				}
				live = append(live, first)
			}
			checkStats(t, m, fmt.Sprintf("%d shards, step %d", shards, step))
			views, _ := m.Views(true)
			checkColumns(t, views)
			if step%7 != 0 {
				continue
			}
			p := published{views: views}
			for _, v := range views {
				p.entries = append(p.entries, slices.Clone(v.Entries))
				p.ids = append(p.ids, slices.Clone(v.IDs))
				p.sizes = append(p.sizes, slices.Clone(v.Sizes))
				p.sigs = append(p.sigs, slices.Clone(v.Pre.Sig))
			}
			cuts = append(cuts, p)
		}
		for c, p := range cuts {
			for s, v := range p.views {
				if !slices.Equal(v.Entries, p.entries[s]) || !slices.Equal(v.IDs, p.ids[s]) ||
					!slices.Equal(v.Sizes, p.sizes[s]) || !slices.Equal(v.Pre.Sig, p.sigs[s]) {
					t.Fatalf("%d shards: cut %d, shard %d changed after it was published", shards, c, s)
				}
			}
		}
	}
}

// TestMaximaAfterDeletingTheLargestTwice: the marks are recomputed only
// when the departing graph held one, so the case to get right is the
// holder leaving — and then its successor, whose mark that recomputation
// set.
func TestMaximaAfterDeletingTheLargestTwice(t *testing.T) {
	m := New("t", 1)
	var ids []uint64
	for _, n := range []int{4, 15, 9, 12, 6} {
		id, _ := m.Add(chain(m.Dict(), fmt.Sprintf("g%d", n), n, "L"))
		ids = append(ids, id)
	}
	for _, step := range []struct {
		del        int
		maxV, maxE int
	}{{1, 12, 11}, {3, 9, 8}, {0, 9, 8}, {2, 6, 5}} {
		if ok, _ := m.Delete(ids[step.del]); !ok {
			t.Fatal("delete failed")
		}
		if st := m.Stats(); st.MaxV != step.maxV || st.MaxE != step.maxE {
			t.Fatalf("after deleting graph %d: maxima (%d, %d), want (%d, %d)", step.del, st.MaxV, st.MaxE, step.maxV, step.maxE)
		}
	}
	// The holder shrinking in place must lower the marks too.
	big, _ := m.Add(chain(m.Dict(), "big", 20, "L"))
	update(m, big, chain(m.Dict(), "shrunk", 3, "L"))
	if st := m.Stats(); st.MaxV != 6 || st.MaxE != 5 {
		t.Fatalf("after shrinking the largest: maxima (%d, %d), want (6, 5)", st.MaxV, st.MaxE)
	}
}
