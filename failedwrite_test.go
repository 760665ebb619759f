package gsim

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"gsim/internal/db"
	"gsim/internal/graph"
)

// starText is the .gsim stanza of a star: a center labeled center, one
// leaf per further label, every edge labeled "e".
func starText(name, center string, leaves ...string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "g %s %d\nv 0 %s\n", name, 1+len(leaves), center)
	for i, l := range leaves {
		fmt.Fprintf(&b, "v %d %s\n", i+1, l)
	}
	for i := range leaves {
		fmt.Fprintf(&b, "e 0 %d e\n", i+1)
	}
	return b.String()
}

// storeState is what a write that fails must leave as it found it.
type storeState struct {
	graphs     int
	epoch      uint64
	nextID     uint64
	live, dead int
}

func stateOf(d *Database) storeState {
	st := d.BranchDictStats()
	return storeState{graphs: d.Len(), epoch: d.Epoch(), nextID: d.store.NextID(), live: st.Live, dead: st.Dead}
}

// chainText is the .gsim stanza of an n-vertex path whose vertex labels
// cycle through L0, L1, L2, every edge labeled "e".
func chainText(name string, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "g %s %d\n", name, n)
	for v := 0; v < n; v++ {
		fmt.Fprintf(&b, "v %d L%d\n", v, v%3)
	}
	for v := 0; v+1 < n; v++ {
		fmt.Fprintf(&b, "e %d %d e\n", v, v+1)
	}
	return b.String()
}

// chainBuilder builds chainText's path in d without storing it.
func chainBuilder(t *testing.T, d *Database, name string, n int) *GraphBuilder {
	t.Helper()
	b := d.NewGraph(name)
	for v := 0; v < n; v++ {
		b.AddVertex(fmt.Sprintf("L%d", v%3))
	}
	for v := 0; v+1 < n; v++ {
		if err := b.AddEdge(v, v+1, "e"); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// lowerRecordLimit makes every graph whose log record takes more than n
// bytes too large to store, until the test ends.
func lowerRecordLimit(t *testing.T, n int) {
	old := maxRecordBytes
	maxRecordBytes = n
	t.Cleanup(func() { maxRecordBytes = old })
}

// TestFailedWriteChangesNothing: a write prepares its entries, interning
// their branches, before it takes a lock. When it then fails — a bulk
// load whose last stanza is malformed, a batch, an update or a delete
// naming an ID no graph carries, a batch or a bulk load holding a graph
// too large for one log record — it changes nothing: not the graph
// count, not the epoch, not the next graph ID, not the branch
// dictionary's live or dead keys, whether the branches it interned were
// live, dead or new.
func TestFailedWriteChangesNothing(t *testing.T) {
	lowerRecordLimit(t, 2000)
	d := New(WithShards(3))
	if _, err := d.LoadText(strings.NewReader(starText("a", "C", "N", "O") +
		starText("b", "C", "C", "C") + starText("gone", "Zn", "Cl", "Br"))); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(2); err != nil {
		t.Fatal(err)
	}
	before := stateOf(d)
	if before.dead == 0 {
		t.Fatal("the deleted graph left no dead branch")
	}

	// Stanzas reviving the dead branches, interning new ones and
	// repeating live ones, then one listing fewer vertices than it
	// declares.
	bad := starText("revive", "Zn", "Cl", "Br") + starText("fresh", "Fe", "S", "S", "P") +
		starText("again", "C", "N", "O") + "g broken 3\nv 0 C\n"
	if n, err := d.LoadText(strings.NewReader(bad)); err == nil || n != 0 {
		t.Fatalf("malformed load stored %d graphs, error %v", n, err)
	}
	if after := stateOf(d); after != before {
		t.Fatalf("failed load: %+v, before it %+v", after, before)
	}

	build := func(name string, labels ...string) *GraphBuilder {
		b := d.NewGraph(name)
		for i, l := range labels {
			b.AddVertex(l)
			if i > 0 {
				if err := b.AddEdge(i-1, i, "e"); err != nil {
					t.Fatal(err)
				}
			}
		}
		return b
	}
	missing := 99
	if _, err := d.CommitAll([]BuilderMutation{
		{Builder: build("new", "Hg", "Se", "Zn")},
		{Builder: build("upd", "Cl", "Br"), UpdateID: &missing},
	}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("CommitAll with unknown update ID: %v", err)
	}
	if after := stateOf(d); after != before {
		t.Fatalf("failed CommitAll: %+v, before it %+v", after, before)
	}
	if err := build("upd", "Au", "Ag").Update(2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update of a deleted ID: %v", err)
	}
	if after := stateOf(d); after != before {
		t.Fatalf("failed Update: %+v, before it %+v", after, before)
	}
	if err := d.Delete(2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete of a deleted ID: %v", err)
	}
	if after := stateOf(d); after != before {
		t.Fatalf("failed Delete: %+v, before it %+v", after, before)
	}
	if _, err := d.CommitAll([]BuilderMutation{
		{Builder: build("new", "Hg", "Se", "Zn")},
		{Builder: chainBuilder(t, d, "long", 400)},
	}); !errors.Is(err, ErrGraphTooLarge) {
		t.Fatalf("CommitAll with an oversized graph: %v", err)
	}
	if after := stateOf(d); after != before {
		t.Fatalf("oversized CommitAll: %+v, before it %+v", after, before)
	}
	if n, err := d.LoadText(strings.NewReader(starText("revive", "Zn", "Cl", "Br") + chainText("long", 400))); !errors.Is(err, ErrGraphTooLarge) || n != 0 {
		t.Fatalf("oversized load stored %d graphs, error %v", n, err)
	}
	if after := stateOf(d); after != before {
		t.Fatalf("oversized load: %+v, before it %+v", after, before)
	}

	target := 1
	ids, err := d.CommitAll([]BuilderMutation{
		{Builder: build("new", "Hg", "Se", "Zn")},
		{Builder: build("upd", "Cl", "Br"), UpdateID: &target},
	})
	if err != nil || len(ids) != 2 || ids[1] != 1 {
		t.Fatalf("valid CommitAll after the failures: ids %v, %v", ids, err)
	}
	if d.Len() != before.graphs+1 {
		t.Fatalf("%d graphs after the valid batch, want %d", d.Len(), before.graphs+1)
	}
}

// TestRefusedBatchLeavesNoTrace: a batch holding a graph too large for one
// log record is refused before anything is journaled, so the refusal is
// the caller's input error and not a durability fault: the database stays
// healthy, and after a crash no graph of the batch comes back — not even
// the small one ahead of the refused graph, whose record a journal that
// had buffered it would flush within the interval.
func TestRefusedBatchLeavesNoTrace(t *testing.T) {
	lowerRecordLimit(t, 2000)
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			// No recovery probe runs within the test: a probe's checkpoint
			// would rotate away a log that a fault had left holding records.
			d, err := Open(dir, WithShards(1), WithAutoCheckpoint(0), WithFsyncPolicy(policy),
				WithRecoveryBackoff(time.Hour, time.Hour))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			_, err = d.CommitAll([]BuilderMutation{
				{Builder: chainBuilder(t, d, "chain", 3)},
				{Builder: chainBuilder(t, d, "path", 400)},
			})
			if !errors.Is(err, ErrGraphTooLarge) {
				t.Fatalf("CommitAll with a 400-vertex path: %v", err)
			}
			if h := d.Health(); h.State != HealthHealthy {
				t.Fatalf("health after a refused batch: %v (%s)", h.State, h.Cause)
			}
			// Crash: abandon d without Close, after long enough for the
			// interval flusher to write whatever the log buffered.
			time.Sleep(300 * time.Millisecond)
			r, err := Open(dir, WithAutoCheckpoint(0))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if r.Len() != 0 {
				t.Fatalf("%d graphs of the refused batch came back after the crash", r.Len())
			}
		})
	}
}

// TestReturnedGraphsAreCopies: the graph Collection.Graph and
// Database.Query hand out is unpacked into a fresh copy, so editing it
// leaves the stored entry as it was: its span, its signature and the
// segment bytes it writes.
func TestReturnedGraphsAreCopies(t *testing.T) {
	scribble := func(g *graph.Graph, l graph.ID) {
		g.RelabelVertex(0, l)
		v := g.AddVertex(l)
		g.MustAddEdge(0, v, l)
	}

	d := New(WithShards(2))
	if _, err := d.LoadText(strings.NewReader(starText("a", "C", "N", "O") + starText("b", "C", "S"))); err != nil {
		t.Fatal(err)
	}
	stored := func() (spans []string, sigs []uint64, seg []byte) {
		views, _ := d.store.Views(true)
		for _, v := range views {
			for i, e := range v.Entries {
				spans = append(spans, e.Labels)
				sigs = append(sigs, v.Pre.Sig[i])
			}
		}
		var buf bytes.Buffer
		if err := db.WriteSegment(&buf, d.store.Ordered()); err != nil {
			t.Fatal(err)
		}
		return spans, sigs, buf.Bytes()
	}
	spans, sigs, seg := stored()
	for id := 0; id < 2; id++ {
		scribble(d.Query(id).g, d.store.Dict().Intern("X"))
	}
	spans2, sigs2, seg2 := stored()
	if !slices.Equal(spans, spans2) || !slices.Equal(sigs, sigs2) || !bytes.Equal(seg, seg2) {
		t.Fatal("editing a Query's graph changed the stored entry")
	}

	col := db.New("c")
	g := graph.New(3)
	g.Name = "path"
	for _, l := range []string{"C", "N", "C"} {
		g.AddVertex(col.Dict.Intern(l))
	}
	g.MustAddEdge(0, 1, col.Dict.Intern("e"))
	g.MustAddEdge(1, 2, col.Dict.Intern("e"))
	e := col.Add(g.Clone())
	span, body := e.Labels, bytes.Clone(e.G.Body())
	scribble(col.Graph(0), col.Dict.Intern("X"))
	if e.Labels != span || !bytes.Equal(e.G.Body(), body) || !col.Graph(0).Equal(g) {
		t.Fatal("editing a Collection.Graph copy changed the stored entry")
	}
}
