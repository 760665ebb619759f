package gsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"gsim/internal/branch"
	"gsim/internal/db"
	"gsim/internal/faultfs"
	"gsim/internal/graph"
)

// storeChain stores a small chain graph and returns its ID.
func storeChain(t *testing.T, d *Database, name string, n int) int {
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
	id, err := b.Store()
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// wantGraph asserts graph id exists with the given name and size.
func wantGraph(t *testing.T, d *Database, id int, name string, n int) {
	t.Helper()
	q := d.Query(id)
	if q.Name() != name || q.NumVertices() != n {
		t.Fatalf("graph %d = %q/%d vertices, want %q/%d", id, q.Name(), q.NumVertices(), name, n)
	}
}

// TestOpenFreshCloseReopen: the basic durable lifecycle — a fresh
// directory, some mutations, a clean Close, and a reopen that sees
// everything with identities preserved and the ID sequence continuing.
func TestOpenFreshCloseReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, WithName("life"))
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 8)
	for i := range ids {
		ids[i] = storeChain(t, d, fmt.Sprintf("g%d", i), 3+i%3)
	}
	if err := d.Delete(ids[2]); err != nil {
		t.Fatal(err)
	}
	ub := d.NewGraph("g5-updated")
	ub.AddVertex("Z")
	ub.AddVertex("Z")
	if err := ub.AddEdge(0, 1, "e"); err != nil {
		t.Fatal(err)
	}
	if err := ub.Update(ids[5]); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Name() != "life" {
		t.Fatalf("name %q, want %q (from manifest, not directory)", r.Name(), "life")
	}
	if r.Len() != 7 {
		t.Fatalf("reopened Len = %d, want 7", r.Len())
	}
	for i, id := range ids {
		switch i {
		case 2:
			if _, ok := r.store.Get(uint64(id)); ok {
				t.Fatalf("deleted graph %d resurrected", id)
			}
		case 5:
			wantGraph(t, r, id, "g5-updated", 2)
		default:
			wantGraph(t, r, id, fmt.Sprintf("g%d", i), 3+i%3)
		}
	}
	// The ID sequence must not replay over recovered graphs.
	fresh := storeChain(t, r, "after", 3)
	for _, id := range ids {
		if fresh == id {
			t.Fatalf("new graph reused recovered ID %d", id)
		}
	}
	wantGraph(t, r, fresh, "after", 3)
}

// TestRecoveryReplaysWAL: a database abandoned without Close (the crash
// case: acknowledged mutations only in the WAL) recovers every
// acknowledged mutation on reopen, and the reopen compacts — a third
// open finds segments only.
func TestRecoveryReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, WithAutoCheckpoint(0))
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 10)
	for i := range ids {
		ids[i] = storeChain(t, d, fmt.Sprintf("w%d", i), 4)
	}
	if err := d.Delete(ids[3]); err != nil {
		t.Fatal(err)
	}
	// No Close: the default FsyncAlways policy means everything above is
	// already on disk in generation-1 logs; drop the handle cold.

	r, err := Open(dir, WithAutoCheckpoint(0))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 9 {
		t.Fatalf("recovered Len = %d, want 9", r.Len())
	}
	for i, id := range ids {
		if i == 3 {
			continue
		}
		wantGraph(t, r, id, fmt.Sprintf("w%d", i), 4)
	}
	st := r.PersistStats()
	if !st.Durable || !st.WAL {
		t.Fatalf("PersistStats = %+v, want durable with WAL", st)
	}
	if st.Checkpoints == 0 {
		t.Fatal("recovery with replayed records did not checkpoint")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Third open: everything lives in segments now, nothing replays, and
	// no checkpoint is needed (light path).
	r2, err := Open(dir, WithAutoCheckpoint(0))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Len() != 9 {
		t.Fatalf("third open Len = %d, want 9", r2.Len())
	}
	if st := r2.PersistStats(); st.Checkpoints != 0 {
		t.Fatalf("clean reopen checkpointed %d times, want light path", st.Checkpoints)
	}
}

// TestCheckpointRotatesAndTruncates: Checkpoint advances the generation,
// deletes superseded logs, and mutations keep flowing before and after.
func TestCheckpointRotatesAndTruncates(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, WithShards(2), WithAutoCheckpoint(0))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 6; i++ {
		storeChain(t, d, fmt.Sprintf("a%d", i), 3)
	}
	st1, err := d.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if st1.Generation != 2 || st1.Segments != 2 || st1.BytesWritten <= 0 {
		t.Fatalf("first checkpoint stats %+v", st1)
	}
	for i := 0; i < 6; i++ {
		storeChain(t, d, fmt.Sprintf("b%d", i), 3)
	}
	st2, err := d.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Generation != 3 {
		t.Fatalf("second checkpoint generation %d, want 3", st2.Generation)
	}
	// Only generation-3 logs and segments may remain.
	wals, _ := filepath.Glob(filepath.Join(dir, "wal-*-*.log"))
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*-*.bin"))
	if len(wals) != 2 || len(segs) != 2 {
		t.Fatalf("after checkpoint: %d logs %d segments, want 2+2", len(wals), len(segs))
	}
	for _, p := range append(wals, segs...) {
		var sh int
		var g uint64
		base := filepath.Base(p)
		if _, err := fmt.Sscanf(base, "wal-%d-%d.log", &sh, &g); err != nil {
			fmt.Sscanf(base, "seg-%d-%d.bin", &sh, &g)
		}
		if g != 3 {
			t.Fatalf("stale generation-%d file survived checkpoint: %s", g, base)
		}
	}
	// Three checkpoints: the boot checkpoint plus the two explicit ones.
	if st := d.PersistStats(); st.Checkpoints != 3 || st.Generation != 3 || st.Segments != 2 {
		t.Fatalf("PersistStats %+v", st)
	}
}

// TestWithoutWAL: no logs are written; a Close checkpoint makes contents
// durable, an abandoned handle loses everything back to the last
// checkpoint — exactly the advertised contract.
func TestWithoutWAL(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, WithoutWAL())
	if err != nil {
		t.Fatal(err)
	}
	id := storeChain(t, d, "kept", 3)
	if wals, _ := filepath.Glob(filepath.Join(dir, "wal-*")); len(wals) != 0 {
		t.Fatalf("WithoutWAL wrote logs: %v", wals)
	}
	if st := d.PersistStats(); st.WAL {
		t.Fatalf("PersistStats claims WAL: %+v", st)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, WithoutWAL())
	if err != nil {
		t.Fatal(err)
	}
	wantGraph(t, r, id, "kept", 3)
	storeChain(t, r, "lost", 3) // never checkpointed; the handle is abandoned

	r2, err := Open(dir, WithoutWAL())
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (uncheckpointed mutation must be lost)", r2.Len())
	}
}

// TestReshardOnOpen: reopening with a different WithShards count
// re-shards during recovery and immediately checkpoints the new layout.
func TestReshardOnOpen(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 12)
	for i := range ids {
		ids[i] = storeChain(t, d, fmt.Sprintf("s%d", i), 3+i%2)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", r.NumShards())
	}
	for i, id := range ids {
		wantGraph(t, r, id, fmt.Sprintf("s%d", i), 3+i%2)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "seg-*-*.bin")); len(segs) != 4 {
		t.Fatalf("%d segments after re-shard, want 4", len(segs))
	}
}

// TestErrNotDurableAndClosed: the persistence surface degrades loudly —
// in-memory databases reject Checkpoint, closed ones reject everything.
func TestErrNotDurableAndClosed(t *testing.T) {
	m := New()
	if _, err := m.Checkpoint(); err != ErrNotDurable {
		t.Fatalf("in-memory Checkpoint err = %v, want ErrNotDurable", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("in-memory Close err = %v", err)
	}
	if st := m.PersistStats(); st.Durable {
		t.Fatalf("in-memory PersistStats %+v", st)
	}

	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	storeChain(t, d, "g", 3)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second Close err = %v", err)
	}
	if _, err := d.Checkpoint(); err != ErrClosed {
		t.Fatalf("closed Checkpoint err = %v, want ErrClosed", err)
	}
	b := d.NewGraph("late")
	b.AddVertex("A")
	if _, err := b.Store(); err == nil {
		t.Fatal("Store after Close succeeded")
	}
}

// TestOpenRejectsCorruptManifest: a trashed manifest fails Open loudly
// rather than silently starting empty over existing data.
func TestOpenRejectsCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	storeChain(t, d, "g", 3)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), []byte("not a manifest"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted a corrupt manifest")
	}
}

// TestOpenRejectsUnsafeSegmentNames: a manifest whose segment list leaves
// the data directory, or names one segment twice, fails Open as corrupt
// rather than reading a file outside the directory or installing the same
// graphs twice. The traversal target exists, so only the name check stops
// it.
func TestOpenRejectsUnsafeSegmentNames(t *testing.T) {
	fs := faultfs.Or(nil)
	for _, tc := range []struct {
		name string
		edit func(segs []string)
	}{
		{"traversal", func(segs []string) { segs[0] = "../" + segs[0] }},
		{"duplicate", func(segs []string) { segs[1] = segs[0] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			dir := filepath.Join(root, "data")
			d, err := Open(dir, WithShards(2))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				storeChain(t, d, fmt.Sprintf("g%d", i), 3)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			man, err := readManifest(fs, dir)
			if err != nil {
				t.Fatal(err)
			}
			seg, err := os.ReadFile(filepath.Join(dir, man.Segments[0]))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(root, man.Segments[0]), seg, 0o644); err != nil {
				t.Fatal(err)
			}
			tc.edit(man.Segments)
			if err := writeManifest(fs, dir, man); err != nil {
				t.Fatal(err)
			}
			if d, err := Open(dir); err == nil {
				d.Close()
				t.Fatalf("Open accepted segments %q", man.Segments)
			} else if !strings.Contains(err.Error(), "corrupt manifest") {
				t.Fatalf("Open err = %v, want a corrupt manifest", err)
			}
		})
	}
}

// TestOpenRejectsRepeatedIDs: a segment that lists one graph ID twice, or
// two segments that share one, fail Open naming the segment. Installing
// both would leave an entry no ID reaches in every later scan.
func TestOpenRejectsRepeatedIDs(t *testing.T) {
	for _, tc := range []struct {
		name string
		// edit rewrites the IDs of segs[1] given those of segs[0].
		edit   func(ids0, ids1 []uint64)
		across bool
	}{
		{"within", func(_, ids1 []uint64) { ids1[1] = ids1[0] }, false},
		{"across", func(ids0, ids1 []uint64) { ids1[0] = ids0[0] }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := Open(dir, WithShards(2))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 16; i++ {
				storeChain(t, d, fmt.Sprintf("g%d", i), 3)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			man, err := readManifest(faultfs.Or(nil), dir)
			if err != nil {
				t.Fatal(err)
			}
			read := func(seg string) ([]uint64, []*graph.Graph) {
				data, err := os.ReadFile(filepath.Join(dir, seg))
				if err != nil {
					t.Fatal(err)
				}
				ids, gs, err := db.ReadSegment(bytes.NewReader(data), len(man.Labels))
				if err != nil {
					t.Fatal(err)
				}
				if len(ids) < 2 {
					t.Fatalf("segment %s holds %d graphs, want ≥ 2", seg, len(ids))
				}
				return ids, gs
			}
			ids0, _ := read(man.Segments[0])
			ids1, gs1 := read(man.Segments[1])
			tc.edit(ids0, ids1)
			entries := make([]*db.Entry, len(gs1))
			for i, g := range gs1 {
				entries[i] = db.NewEntry(ids1[i], g, branch.Coded{})
			}
			var buf bytes.Buffer
			if err := db.WriteSegment(&buf, entries); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, man.Segments[1]), buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := Open(dir)
			if err == nil {
				n := r.Len()
				r.Close()
				t.Fatalf("Open accepted a repeated ID (Len %d)", n)
			}
			// Across segments either load may come second.
			named := strings.Contains(err.Error(), man.Segments[1]) ||
				(tc.across && strings.Contains(err.Error(), man.Segments[0]))
			if !named || !strings.Contains(err.Error(), "duplicate") {
				t.Fatalf("Open err = %v, want a duplicate ID naming the segment", err)
			}
		})
	}
}

// staleSlots counts the slots d's shard postings do not cover yet.
func staleSlots(d *Database) int {
	views, _ := d.store.Views(true)
	n := 0
	for _, v := range views {
		n += v.Post.Stale(len(v.Entries))
	}
	return n
}

// TestOpenBuildsPostings: Open returns a store whose branch postings are
// complete. A WAL of stores, updates and deletes replays into a store with
// no stale slot, every prefiltered search answers as the crashed database
// did once its postings had settled, and the epoch does not go back. On
// one shard recovery interns branches in the order the live store did, so
// the postings are the same lists and every search reads the same
// positions; across shards the logs replay in parallel, which renumbers
// the branches that order a plan's equally rare lists.
func TestOpenBuildsPostings(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { openBuildsPostings(t, shards) })
	}
}

func openBuildsPostings(t *testing.T, shards int) {
	dir := t.TempDir()
	d, err := Open(dir, WithShards(shards), WithAutoCheckpoint(0))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var ids []int
	for batch := 0; batch < 6; batch++ {
		builders := make([]*GraphBuilder, 50)
		for i := range builders {
			builders[i] = buildRandomGraph(d, rng, fmt.Sprintf("g%d-%d", batch, i))
		}
		first, err := d.StoreAll(builders)
		if err != nil {
			t.Fatal(err)
		}
		for i := range builders {
			ids = append(ids, first+i)
		}
	}
	for i := 0; i < 40; i++ {
		if err := buildRandomGraph(d, rng, fmt.Sprintf("u%d", i)).Update(ids[5*i]); err != nil {
			t.Fatal(err)
		}
		if err := d.Delete(ids[5*i+1]); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for staleSlots(d) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d slots still stale 5s after the last write", staleSlots(d))
		}
		time.Sleep(10 * time.Millisecond)
	}
	// search returns each query's matched IDs and the positions it read.
	search := func(d *Database) (matched [][]int, visited []int) {
		qrng := rand.New(rand.NewSource(11))
		for i := 0; i < 30; i++ {
			res, err := d.Search(buildRandomGraph(d, qrng, "q").Query(), SearchOptions{Method: LSAP, Tau: 2, Prefilter: true})
			if err != nil {
				t.Fatal(err)
			}
			var m []int
			for _, x := range res.Matches {
				m = append(m, x.Index)
			}
			slices.Sort(m)
			matched, visited = append(matched, m), append(visited, res.Stages.Visited)
		}
		return matched, visited
	}
	wantMatched, wantVisited := search(d)
	epoch, n := d.Epoch(), d.Len()

	// Crash: abandon d with everything in its logs.
	r, err := Open(dir, WithAutoCheckpoint(0))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if s := staleSlots(r); s != 0 {
		t.Fatalf("Open returned %d stale slots", s)
	}
	if r.Len() != n {
		t.Fatalf("recovered %d graphs, want %d", r.Len(), n)
	}
	matched, visited := search(r)
	if !reflect.DeepEqual(matched, wantMatched) {
		t.Fatalf("recovered searches matched %v, the crashed database %v", matched, wantMatched)
	}
	if shards == 1 && !slices.Equal(visited, wantVisited) {
		t.Fatalf("recovered searches visited %v positions, the crashed database %v", visited, wantVisited)
	}
	if r.Epoch() < epoch {
		t.Fatalf("recovered epoch %d, below the crashed database's %d", r.Epoch(), epoch)
	}
}

// TestCloseLeavesNothingRunning: Close stops every shard's quiet timer and
// waits for the postings builds in flight, in memory and on disk alike. A
// few stores below the rebuild threshold arm the timers; after Close,
// called twice, no shard installs a build for twice the timer's 250 ms,
// and the goroutine count returns to what it was before the database was
// made.
func TestCloseLeavesNothingRunning(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			procs := runtime.NumGoroutine()
			var d *Database
			if !durable {
				d = New(WithShards(2))
			} else if open, err := Open(t.TempDir(), WithShards(2)); err != nil {
				t.Fatal(err)
			} else {
				d = open
			}
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < 6; i++ {
				if _, err := buildRandomGraph(d, rng, fmt.Sprintf("g%d", i)).Store(); err != nil {
					t.Fatal(err)
				}
			}
			if staleSlots(d) == 0 {
				t.Fatal("the stores left no stale slot, so no timer is armed")
			}
			for i := 0; i < 2; i++ {
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}
			}
			rebuilds := func() (n uint64) {
				for k := range d.StoreTelemetry().Shards {
					n += d.StoreTelemetry().Shards[k].Rebuilds.Load()
				}
				return n
			}
			before := rebuilds()
			time.Sleep(500 * time.Millisecond)
			if after := rebuilds(); after != before {
				t.Fatalf("the shards installed %d postings builds after Close", after-before)
			}
			// The runtime counts a goroutine until it has finished exiting.
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > procs; {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines before the database, %d after Close", procs, runtime.NumGoroutine())
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
