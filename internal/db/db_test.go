package db

import (
	"bytes"
	"math/rand"
	"testing"

	"gsim/internal/branch"
	"gsim/internal/graph"
)

func testCollection(t testing.TB, n int) *Collection {
	t.Helper()
	c := New("test")
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		size := 3 + rng.Intn(6)
		g := graph.New(size)
		g.Name = "g" + string(rune('0'+i%10))
		for v := 0; v < size; v++ {
			g.AddVertex(c.Dict.Intern(string(rune('A' + rng.Intn(4)))))
		}
		for e := 0; e < 2*size; e++ {
			u, v := rng.Intn(size), rng.Intn(size)
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v, c.Dict.Intern(string(rune('a'+rng.Intn(3)))))
			}
		}
		c.Add(g)
	}
	return c
}

func TestAddMaintainsStats(t *testing.T) {
	c := New("s")
	g1 := graph.New(3)
	g1.Name = "a"
	g1.AddVertex(c.Dict.Intern("X"))
	g1.AddVertex(c.Dict.Intern("Y"))
	g1.AddVertex(c.Dict.Intern("X"))
	g1.MustAddEdge(0, 1, c.Dict.Intern("p"))
	c.Add(g1)
	g2 := graph.New(5)
	g2.Name = "b"
	for i := 0; i < 5; i++ {
		g2.AddVertex(c.Dict.Intern("Z"))
	}
	g2.MustAddEdge(0, 1, c.Dict.Intern("q"))
	g2.MustAddEdge(1, 2, c.Dict.Intern("q"))
	c.Add(g2)

	s := c.Stats()
	if s.Graphs != 2 || s.MaxV != 5 || s.MaxE != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.LV != 3 || s.LE != 2 {
		t.Fatalf("alphabets = %d,%d; want 3,2", s.LV, s.LE)
	}
	wantAvg := (g1.AvgDegree() + g2.AvgDegree()) / 2
	if s.AvgDegree != wantAvg {
		t.Fatalf("avg degree %v, want %v", s.AvgDegree, wantAvg)
	}
	if s.String() == "" {
		t.Fatal("empty Stats string")
	}
}

func TestBranchIndexMatchesRecompute(t *testing.T) {
	c := testCollection(t, 20)
	for i := 0; i < c.Len(); i++ {
		e := c.Entry(i)
		// Every stored key was interned at Add, so resolving the fresh
		// multiset must reproduce the stored IDs exactly — no ephemerals.
		fresh := c.BranchDict().ResolveMultiset(branch.MultisetOf(e.G.Unpack()))
		if len(fresh) != len(e.Branches) {
			t.Fatalf("graph %d: index length %d vs %d", i, len(e.Branches), len(fresh))
		}
		for j := range fresh {
			if fresh[j] != e.Branches[j] {
				t.Fatalf("graph %d: stale branch index", i)
			}
			if fresh[j] >= EphemeralBranchBase {
				t.Fatalf("graph %d: stored branch resolved to ephemeral ID %d", i, fresh[j])
			}
		}
	}
}

func TestSamplePairGBDsDeterministic(t *testing.T) {
	c := testCollection(t, 30)
	a := c.SamplePairGBDs(500, 7)
	b := c.SamplePairGBDs(500, 7)
	if len(a) != 500 {
		t.Fatalf("got %d samples", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sampling not deterministic for equal seeds")
		}
		if a[i] < 0 {
			t.Fatalf("negative GBD sample %v", a[i])
		}
	}
	diff := c.SamplePairGBDs(500, 8)
	same := true
	for i := range a {
		if a[i] != diff[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical samples")
	}
}

func TestSamplePairGBDsEdgeCases(t *testing.T) {
	c := New("tiny")
	if got := c.SamplePairGBDs(10, 1); got != nil {
		t.Fatal("sampling an empty collection should return nil")
	}
	g := graph.New(1)
	g.AddVertex(c.Dict.Intern("A"))
	c.Add(g)
	if got := c.SamplePairGBDs(10, 1); got != nil {
		t.Fatal("sampling needs at least two graphs")
	}
}

func TestSamplePairsNeverPairGraphWithItself(t *testing.T) {
	// With two graphs, every sampled pair is (0,1): GBD must be the
	// cross distance, never 0 from self-pairing (unless the graphs tie).
	c := New("two")
	g1 := graph.New(2)
	g1.AddVertex(c.Dict.Intern("A"))
	g1.AddVertex(c.Dict.Intern("B"))
	c.Add(g1)
	g2 := graph.New(2)
	g2.AddVertex(c.Dict.Intern("C"))
	g2.AddVertex(c.Dict.Intern("D"))
	c.Add(g2)
	for _, v := range c.SamplePairGBDs(100, 3) {
		if v != 2 {
			t.Fatalf("sample GBD = %v, want 2", v)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	c := testCollection(t, 12)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load("copy", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != c.Len() {
		t.Fatalf("loaded %d graphs, want %d", back.Len(), c.Len())
	}
	// GBD between corresponding graphs must be zero, and the recomputed
	// stats must agree.
	for i := 0; i < c.Len(); i++ {
		if d := branch.GBDGraphs(c.Graph(i), back.Graph(i)); d != 0 {
			t.Fatalf("graph %d changed in round trip (GBD %d)", i, d)
		}
	}
	a, b := c.Stats(), back.Stats()
	if a != b {
		t.Fatalf("stats changed: %+v vs %+v", a, b)
	}
}
