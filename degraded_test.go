package gsim

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"gsim/internal/faultfs"
)

// chainQuery builds (without storing) a 3-vertex chain query.
func chainQuery(d *Database) *Query {
	b := d.NewGraph("q")
	b.AddVertex("L0")
	b.AddVertex("L1")
	b.AddVertex("L2")
	b.AddEdge(0, 1, "e")
	b.AddEdge(1, 2, "e")
	return b.Query()
}

// storeExpectingError attempts one Store and returns its error.
func storeExpectingError(d *Database, name string) error {
	b := d.NewGraph(name)
	b.AddVertex("L0")
	b.AddVertex("L1")
	if err := b.AddEdge(0, 1, "e"); err != nil {
		return err
	}
	_, err := b.Store()
	return err
}

// waitHealthy polls until the database reports healthy or the deadline
// passes.
func waitHealthy(t *testing.T, d *Database, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if d.Health().State == HealthHealthy {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	hi := d.Health()
	t.Fatalf("database did not recover within %v (state %v, cause %q)", timeout, hi.State, hi.Cause)
}

// TestFsyncFaultDegradesServesReadsRecovers is the headline robustness
// scenario: a failing fsync flips the database degraded-read-only,
// mutations fail fast with ErrDegraded while searches keep serving, the
// background probe restores health once the disk behaves, and a reopen
// sees every acknowledged write.
func TestFsyncFaultDegradesServesReadsRecovers(t *testing.T) {
	dir := t.TempDir()
	in := faultfs.NewInjector(nil)
	d, err := Open(dir, WithShards(2), WithAutoCheckpoint(0),
		WithFS(in), WithRecoveryBackoff(5*time.Millisecond, 25*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 5)
	for i := range ids {
		ids[i] = storeChain(t, d, fmt.Sprintf("g%d", i), 3)
	}

	// The disk goes bad: every fsync fails from here (WAL commits and
	// checkpoint segments alike, so recovery probes fail too).
	in.Add(&faultfs.Rule{Op: faultfs.OpSync})

	err = storeExpectingError(d, "doomed")
	if err == nil {
		t.Fatal("store under a failing fsync should not be acknowledged")
	}
	if errors.Is(err, ErrDegraded) {
		t.Fatalf("first failure should surface the I/O error, got %v", err)
	}

	// Fail fast now: the gate rejects before touching the journal.
	if err := storeExpectingError(d, "rejected"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("store while degraded = %v, want ErrDegraded", err)
	}
	if err := d.Delete(ids[0]); !errors.Is(err, ErrDegraded) {
		t.Fatalf("delete while degraded = %v, want ErrDegraded", err)
	}

	// Reads are unaffected: lookups and full searches keep serving.
	wantGraph(t, d, ids[1], "g1", 3)
	res, err := d.Search(chainQuery(d), SearchOptions{Method: LSAP, Tau: 2})
	if err != nil {
		t.Fatalf("search while degraded: %v", err)
	}
	if res.Scanned == 0 {
		t.Fatal("search while degraded scanned nothing")
	}

	hi := d.Health()
	if hi.State == HealthHealthy {
		t.Fatal("health reports healthy while degraded")
	}
	if hi.Cause == "" || hi.Since.IsZero() || hi.Degradations == 0 {
		t.Fatalf("degraded health info incomplete: %+v", hi)
	}

	// The disk heals; the probe's next checkpoint succeeds and the
	// database climbs back to healthy on its own.
	in.Clear()
	waitHealthy(t, d, 5*time.Second)
	hi = d.Health()
	if hi.Probes == 0 || hi.Recoveries == 0 {
		t.Fatalf("recovery left no probe/recovery trace: %+v", hi)
	}

	// Writable again.
	ids = append(ids, storeChain(t, d, "after", 4))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Zero acknowledged writes lost across the whole episode.
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, id := range ids[:5] {
		wantGraph(t, r, id, fmt.Sprintf("g%d", i), 3)
	}
	wantGraph(t, r, ids[5], "after", 4)
}

// TestENOSPCFailsFast: a full disk on the WAL append path surfaces
// ENOSPC on the failing write, then ErrDegraded on every later mutation
// without touching the journal again.
func TestENOSPCFailsFast(t *testing.T) {
	dir := t.TempDir()
	in := faultfs.NewInjector(nil)
	// Backoff of an hour: no probe interferes with the assertions.
	d, err := Open(dir, WithShards(1), WithAutoCheckpoint(0),
		WithFS(in), WithRecoveryBackoff(time.Hour, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{storeChain(t, d, "a", 3), storeChain(t, d, "b", 4)}

	r := in.Add(&faultfs.Rule{Op: faultfs.OpWrite, PathContains: "wal-", Err: faultfs.ENOSPC})
	if err := storeExpectingError(d, "doomed"); !errors.Is(err, faultfs.ENOSPC) {
		t.Fatalf("store on full disk = %v, want ENOSPC", err)
	}
	seen := r.Seen()
	if err := storeExpectingError(d, "rejected"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("store while degraded = %v, want ErrDegraded", err)
	}
	if r.Seen() != seen {
		t.Fatalf("degraded store touched the journal: %d WAL writes, was %d", r.Seen(), seen)
	}

	// Crash-style abandon (no Close), disk healed: recovery holds both
	// acknowledged graphs.
	d.dur.stopLoop()
	in.Clear()
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	wantGraph(t, re, ids[0], "a", 3)
	wantGraph(t, re, ids[1], "b", 4)
}

// TestCheckpointFaultKeepsOldManifestAuthoritative injects faults into
// three different checkpoint stages — segment creation, the torn
// manifest write, the manifest rename — and verifies the tmp+rename
// protocol leaves the previous manifest authoritative every time:
// a crash-style reopen recovers every acknowledged write from the old
// manifest plus the surviving WAL generations.
func TestCheckpointFaultKeepsOldManifestAuthoritative(t *testing.T) {
	dir := t.TempDir()
	in := faultfs.NewInjector(nil)
	d, err := Open(dir, WithShards(2), WithAutoCheckpoint(0),
		WithFS(in), WithRecoveryBackoff(time.Hour, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 4)
	for i := range ids {
		ids[i] = storeChain(t, d, fmt.Sprintf("pre%d", i), 3)
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatalf("baseline checkpoint: %v", err)
	}
	// These three live only in WAL generations after the good manifest.
	for i := 0; i < 3; i++ {
		ids = append(ids, storeChain(t, d, fmt.Sprintf("post%d", i), 4))
	}

	faults := []faultfs.Rule{
		{Op: faultfs.OpCreate, PathContains: "seg-"},
		{Op: faultfs.OpWrite, PathContains: "MANIFEST", ShortBytes: 4},
		{Op: faultfs.OpRename, PathContains: "MANIFEST"},
	}
	for i := range faults {
		in.Clear()
		in.Add(&faults[i])
		if _, err := d.Checkpoint(); err == nil {
			t.Fatalf("checkpoint under fault %d (%v) should fail", i, faults[i].Op)
		}
		if err := storeExpectingError(d, "while-degraded"); !errors.Is(err, ErrDegraded) {
			t.Fatalf("after failed checkpoint %d: store = %v, want ErrDegraded", i, err)
		}
	}

	// Crash without Close; the disk heals; recovery must see the old
	// manifest plus every WAL generation at or after it — including the
	// generations the failed checkpoints skipped past.
	d.dur.stopLoop()
	in.Clear()
	r, err := Open(dir)
	if err != nil {
		t.Fatalf("recovery after failed checkpoints: %v", err)
	}
	defer r.Close()
	for i := 0; i < 4; i++ {
		wantGraph(t, r, ids[i], fmt.Sprintf("pre%d", i), 3)
	}
	for i := 0; i < 3; i++ {
		wantGraph(t, r, ids[4+i], fmt.Sprintf("post%d", i), 4)
	}
}

// TestCheckpointRecoversDegradedDatabase: an operator-run (or probe-run)
// checkpoint that succeeds is itself the recovery action — it clears the
// degraded state without waiting for the backoff loop.
func TestCheckpointRecoversDegradedDatabase(t *testing.T) {
	dir := t.TempDir()
	in := faultfs.NewInjector(nil)
	d, err := Open(dir, WithShards(1), WithAutoCheckpoint(0),
		WithFS(in), WithRecoveryBackoff(time.Hour, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	storeChain(t, d, "a", 3)

	in.Add(&faultfs.Rule{Op: faultfs.OpSync, PathContains: "wal-"})
	if err := storeExpectingError(d, "doomed"); err == nil {
		t.Fatal("store under failing WAL fsync should error")
	}
	if d.Health().State == HealthHealthy {
		t.Fatal("database should be degraded")
	}

	in.Clear()
	if _, err := d.Checkpoint(); err != nil {
		t.Fatalf("manual checkpoint on healed disk: %v", err)
	}
	if st := d.Health().State; st != HealthHealthy {
		t.Fatalf("state after successful checkpoint = %v, want healthy", st)
	}
	if err := storeExpectingError(d, "again"); err != nil {
		t.Fatalf("store after recovery: %v", err)
	}
}

// TestDegradedRetriesFollowTheBackoff: while the database is degraded its
// checkpoints are retried on the recovery backoff alone. A log past the
// auto-checkpoint threshold (one byte here) starts no retry of its own,
// so with an hour's backoff and checkpoints failing, none is attempted
// over the next 2.5 s — two and a half of the loop's log checks.
func TestDegradedRetriesFollowTheBackoff(t *testing.T) {
	in := faultfs.NewInjector(nil)
	d, err := Open(t.TempDir(), WithShards(1), WithAutoCheckpoint(1),
		WithFS(in), WithRecoveryBackoff(time.Hour, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		in.Clear()
		if err := d.Close(); err != nil {
			t.Error(err)
		}
	}()
	storeChain(t, d, "a", 3)

	seg := in.Add(&faultfs.Rule{Op: faultfs.OpCreate, PathContains: "seg-"})
	in.Add(&faultfs.Rule{Op: faultfs.OpSync, PathContains: "wal-"})
	if err := storeExpectingError(d, "doomed"); err == nil {
		t.Fatal("store under a failing WAL fsync should error")
	}
	if st := d.Health().State; st != HealthDegraded {
		t.Fatalf("state after the fault = %v, want degraded", st)
	}
	seen := seg.Seen()
	time.Sleep(2500 * time.Millisecond)
	if n := seg.Seen() - seen; n != 0 {
		t.Fatalf("%d checkpoints attempted while degraded, inside an hour's backoff", n)
	}
	if hi := d.Health(); hi.Probes != 0 || hi.State != HealthDegraded {
		t.Fatalf("health after 2.5 s = %v with %d probes, want degraded with none", hi.State, hi.Probes)
	}
}
