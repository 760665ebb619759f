package db

import (
	"fmt"
	"math/rand"
	"testing"

	"gsim/internal/branch"
	"gsim/internal/graph"
)

// TestDictRefcountLifecycle: interning counts occurrences up, Release
// counts them down, and a key only dies when its last occurrence is
// released; re-interning a dead-but-uncompacted key revives the same ID.
func TestDictRefcountLifecycle(t *testing.T) {
	d := NewBranchDict()
	ms := branch.Multiset{"a", "a", "b"}
	ids1 := d.InternMultiset(ms)
	ids2 := d.InternMultiset(ms)
	if st := d.Stats(); st.Live != 2 || st.Dead != 0 {
		t.Fatalf("after two interns: %+v, want 2 live 0 dead", st)
	}
	d.Release(ids1)
	if st := d.Stats(); st.Live != 2 || st.Dead != 0 {
		t.Fatalf("after first release: %+v, want both keys still live", st)
	}
	d.Release(ids2)
	if st := d.Stats(); st.Live != 0 || st.Dead != 2 {
		t.Fatalf("after second release: %+v, want 0 live 2 dead", st)
	}
	// Revival before compaction: the same Key gets its old ID back.
	ids3 := d.InternMultiset(ms)
	if st := d.Stats(); st.Live != 2 || st.Dead != 0 {
		t.Fatalf("after revival: %+v, want 2 live 0 dead", st)
	}
	if a3, a2 := ids3.AppendTo(nil), ids2.AppendTo(nil); a3[0] != a2[0] || a3[2] != a2[2] {
		t.Fatalf("revival changed IDs: %v vs %v", a3, a2)
	}
}

// TestDictCompactionRetiresDeadIDs: compaction removes dead keys from the
// map, never reuses their IDs, and leaves live interned multisets intact —
// a key re-interned after its ID was retired gets a strictly fresh ID.
func TestDictCompactionRetiresDeadIDs(t *testing.T) {
	d := NewBranchDict()
	live := d.InternMultiset(branch.Multiset{"keep1", "keep2"})
	dead := d.InternMultiset(branch.Multiset{"gone1", "gone2", "gone3"})
	d.Release(dead)
	if n := d.Compact(); n != 3 {
		t.Fatalf("Compact reclaimed %d keys, want 3", n)
	}
	st := d.Stats()
	if st.Live != 2 || st.Dead != 0 || st.Retired != 3 || st.Compactions != 1 {
		t.Fatalf("post-compaction stats %+v", st)
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d after compaction, want 2", d.Len())
	}
	// Live multiset undisturbed: lookups still resolve to the same IDs.
	again := d.InternMultiset(branch.Multiset{"keep1", "keep2"})
	if a, l := again.AppendTo(nil), live.AppendTo(nil); a[0] != l[0] || a[1] != l[1] {
		t.Fatalf("live IDs disturbed by compaction: %v vs %v", a, l)
	}
	d.Release(again) // rebalance the extra refcount
	// A retired key re-interned gets a fresh ID, never a recycled one.
	reborn := d.InternMultiset(branch.Multiset{"gone2"}).AppendTo(nil)
	for _, old := range dead.AppendTo(nil) {
		if reborn[0] == old {
			t.Fatalf("retired ID %d was reused", old)
		}
	}
	// Queries resolving a retired key before it is re-interned must get
	// an ephemeral ID, exactly like a never-seen key.
	d2 := NewBranchDict()
	ids := d2.InternMultiset(branch.Multiset{"x"})
	d2.Release(ids)
	d2.Compact()
	if got := d2.ResolveMultiset(branch.Multiset{"x"}); got[0] < EphemeralBranchBase {
		t.Fatalf("retired key resolved to stored-range ID %d", got[0])
	}
}

// TestDictAutoCompaction: once dead keys pass both the absolute floor and
// the dead≥live ratio, Release triggers compaction on its own.
func TestDictAutoCompaction(t *testing.T) {
	d := NewBranchDict()
	n := compactMinDead + 8
	sets := make([]branch.Coded, n)
	for i := 0; i < n; i++ {
		sets[i] = d.InternMultiset(branch.Multiset{branch.Key(fmt.Sprintf("k%05d", i))})
	}
	for _, ids := range sets {
		d.Release(ids)
	}
	st := d.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no automatic compaction after %d dead keys: %+v", n, st)
	}
	// The pass fires at the floor; releases after it stay below the
	// threshold and wait for the next pass.
	if st.Retired < compactMinDead || st.Dead >= compactMinDead {
		t.Fatalf("auto-compaction reclaimed too little: %+v len=%d", st, d.Len())
	}
}

// TestDictReleaseEphemeralIgnored: Release must skip overlay IDs — a
// query's ephemeral multiset can be fed back without corrupting counts.
func TestDictReleaseEphemeralIgnored(t *testing.T) {
	d := NewBranchDict()
	stored := d.InternMultiset(branch.Multiset{"s"})
	eph := d.ResolveMultiset(branch.Multiset{"s", "unknown"})
	d.Release(branch.Encode(eph)) // releases "s" once, ignores the ephemeral ID
	if st := d.Stats(); st.Live != 0 || st.Dead != 1 {
		t.Fatalf("after releasing resolved multiset: %+v", st)
	}
	d.Release(stored) // already dead: must not underflow or double-count
	if st := d.Stats(); st.Dead != 1 {
		t.Fatalf("double release corrupted counts: %+v", st)
	}
}

// TestDictEquivalenceUnderChurn: randomized add/delete churn with
// interleaved compactions must keep interned-ID merges equal to Key-form
// merges for every pair of surviving graphs.
func TestDictEquivalenceUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	dict := graph.NewLabels()
	d := NewBranchDict()
	type held struct {
		g   *graph.Graph
		ids branch.Coded
	}
	var alive []held
	for step := 0; step < 400; step++ {
		if len(alive) > 0 && rng.Intn(3) == 0 {
			k := rng.Intn(len(alive))
			d.Release(alive[k].ids)
			alive[k] = alive[len(alive)-1]
			alive = alive[:len(alive)-1]
			if rng.Intn(10) == 0 {
				d.Compact()
			}
			continue
		}
		g := randomDictGraph(rng, dict, 2+rng.Intn(10), 3)
		alive = append(alive, held{g, d.InternMultiset(branch.MultisetOf(g))})
	}
	for i := 0; i < len(alive); i++ {
		for j := i + 1; j < len(alive); j++ {
			a, b := alive[i], alive[j]
			want := branch.GBD(branch.MultisetOf(a.g), branch.MultisetOf(b.g))
			if got := branch.GBDIDs(a.ids.AppendTo(nil), b.ids); got != want {
				t.Fatalf("pair (%d,%d): interned GBD %d, keys %d", i, j, got, want)
			}
		}
	}
}
