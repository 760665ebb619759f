package db

import (
	"math/rand"
	"testing"
	"unsafe"

	"gsim/internal/branch"
	"gsim/internal/graph"
)

func randomDictGraph(rng *rand.Rand, dict *graph.Labels, n, labels int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddVertex(dict.Intern(string(rune('A' + rng.Intn(labels)))))
	}
	for i := 0; i < 2*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, dict.Intern(string(rune('a'+rng.Intn(labels)))))
		}
	}
	return g
}

// TestInternedGBDMatchesKeys: for randomized graphs, GBD and intersection
// size over interned ID multisets must equal the Key-based results — the
// equivalence that makes the integer hot path a pure representation change.
func TestInternedGBDMatchesKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		c := New("eq")
		n := 8 + rng.Intn(12)
		for i := 0; i < n; i++ {
			c.Add(randomDictGraph(rng, c.Dict, 2+rng.Intn(14), 3))
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				a, b := c.Entry(i), c.Entry(j)
				ka, kb := branch.MultisetOf(a.G.Unpack()), branch.MultisetOf(b.G.Unpack())
				if got, want := branch.IntersectSizeIDs(a.Branches.AppendTo(nil), b.Branches), branch.IntersectSize(ka, kb); got != want {
					t.Fatalf("trial %d pair (%d,%d): interned |∩| = %d, keys %d", trial, i, j, got, want)
				}
				if got, want := branch.GBDIDs(a.Branches.AppendTo(nil), b.Branches), branch.GBD(ka, kb); got != want {
					t.Fatalf("trial %d pair (%d,%d): interned GBD = %d, keys %d", trial, i, j, got, want)
				}
			}
		}
	}
}

// TestResolveMultisetEphemeralQueries: a query whose graph carries labels
// the collection has never seen — including the negative ephemeral label
// IDs of gsim.Database.NewQuery — must resolve to ID multisets whose
// merges against stored entries match the Key-based results, and must not
// grow the shared dictionary.
func TestResolveMultisetEphemeralQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	c := New("eph")
	for i := 0; i < 12; i++ {
		c.Add(randomDictGraph(rng, c.Dict, 3+rng.Intn(10), 3))
	}
	dictLen := c.BranchDict().Len()
	for trial := 0; trial < 40; trial++ {
		// Query graphs built against the same label dictionary but with
		// extra labels the collection never stored — and, every other
		// trial, negative label IDs exactly as NewQuery assigns them.
		n := 2 + rng.Intn(10)
		q := graph.New(n)
		for i := 0; i < n; i++ {
			if trial%2 == 1 && rng.Intn(3) == 0 {
				q.AddVertex(graph.ID(-1 - rng.Intn(4))) // ephemeral label
			} else {
				q.AddVertex(c.Dict.Intern(string(rune('A' + rng.Intn(5)))))
			}
		}
		for i := 0; i < 2*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v && !q.HasEdge(u, v) {
				q.MustAddEdge(u, v, c.Dict.Intern(string(rune('a'+rng.Intn(5)))))
			}
		}
		kq := branch.MultisetOf(q)
		iq := c.BranchDict().ResolveMultiset(kq)
		if len(iq) != len(kq) {
			t.Fatalf("trial %d: resolved %d IDs for %d keys", trial, len(iq), len(kq))
		}
		for i := 0; i < c.Len(); i++ {
			e := c.Entry(i)
			ke := branch.MultisetOf(e.G.Unpack())
			if got, want := branch.GBDIDs(iq, e.Branches), branch.GBD(kq, ke); got != want {
				t.Fatalf("trial %d vs entry %d: interned GBD = %d, keys %d", trial, i, got, want)
			}
			if got, want := branch.IntersectSizeIDs(iq, e.Branches), branch.IntersectSize(kq, ke); got != want {
				t.Fatalf("trial %d vs entry %d: interned |∩| = %d, keys %d", trial, i, got, want)
			}
		}
		// Self-intersection sanity: ephemeral IDs are consistent within one
		// resolution, so a multiset fully intersects itself.
		if got := branch.IntersectSizeIDs(iq, branch.Encode(iq)); got != len(iq) {
			t.Fatalf("trial %d: self-intersection %d of %d", trial, got, len(iq))
		}
	}
	if got := c.BranchDict().Len(); got != dictLen {
		t.Fatalf("query resolution grew the shared dictionary: %d -> %d", dictLen, got)
	}
}

// TestInternMultisetSortedAndDense: stored multisets are sorted, below the
// ephemeral base, and dictionary IDs are dense.
func TestInternMultisetSortedAndDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := New("sorted")
	for i := 0; i < 10; i++ {
		e := c.Add(randomDictGraph(rng, c.Dict, 3+rng.Intn(10), 2))
		ids := e.Branches.AppendTo(nil)
		for j := 1; j < len(ids); j++ {
			if ids[j-1] > ids[j] {
				t.Fatal("stored ID multiset unsorted")
			}
		}
		for _, id := range ids {
			if id >= EphemeralBranchBase {
				t.Fatalf("stored ID %d in the ephemeral range", id)
			}
			if int(id) >= c.BranchDict().Len() {
				t.Fatalf("stored ID %d beyond dictionary length %d", id, c.BranchDict().Len())
			}
		}
	}
}

// TestInternMultisetClonesKeys: a multiset's keys are substrings of one
// per-graph string (branch.MultisetOf), so a dictionary that stored them
// as map keys would pin every graph's whole key string. No key the
// dictionary holds may point into the interned multiset's storage.
func TestInternMultisetClonesKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dict := graph.NewLabels()
	d := NewBranchDict()
	for trial := 0; trial < 20; trial++ {
		ms := branch.MultisetOf(randomDictGraph(rng, dict, 5+rng.Intn(20), 4))
		lo, hi := ^uintptr(0), uintptr(0)
		for _, k := range ms {
			p := uintptr(unsafe.Pointer(unsafe.StringData(string(k))))
			lo, hi = min(lo, p), max(hi, p+uintptr(len(k)))
		}
		d.InternMultiset(ms)
		for k := range d.ids {
			if p := uintptr(unsafe.Pointer(unsafe.StringData(string(k)))); p >= lo && p < hi {
				t.Fatalf("trial %d: dictionary key %q points into the caller's multiset", trial, k)
			}
		}
	}
}
