package gsim

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// Fault-injection recovery tests: the durability contract is that every
// acknowledged mutation survives kill -9 under FsyncAlways, unacked WAL
// tails are dropped silently, and structural damage a checkpoint cannot
// explain (a missing segment) fails Open loudly instead of serving a
// silently shrunken database.

// TestCrashChild is the kill -9 victim: driven only by TestKill9Recovery
// via the environment, it opens the shared data directory and stores
// graphs from several goroutines forever, printing an ACK line for every
// acknowledged ID. Under GSIM_CRASH_CKPT=1 a checkpoint loop races the
// writers the whole time.
func TestCrashChild(t *testing.T) {
	dir := os.Getenv("GSIM_CRASH_DIR")
	if dir == "" {
		t.Skip("crash-test child; run via TestKill9Recovery")
	}
	d, err := Open(dir, WithShards(4), WithAutoCheckpoint(0))
	if err != nil {
		fmt.Printf("OPEN-ERR %v\n", err)
		os.Exit(1)
	}
	if os.Getenv("GSIM_CRASH_CKPT") == "1" {
		go func() {
			for {
				d.Checkpoint()
				time.Sleep(5 * time.Millisecond)
			}
		}()
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				name := fmt.Sprintf("c%d-%d", w, i)
				b := d.NewGraph(name)
				b.AddVertex("A")
				b.AddVertex("B")
				b.AddVertex("C")
				b.AddEdge(0, 1, "x")
				b.AddEdge(1, 2, "y")
				id, err := b.Store()
				if err != nil {
					return
				}
				// The mutex keeps ACK lines whole; stdout is unbuffered, so
				// once a line is out, the parent may kill us at any instant.
				mu.Lock()
				fmt.Printf("ACK %d %s\n", id, name)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
}

// runCrashChild re-executes the test binary as a crash victim writing
// into dir, SIGKILLs it after minAcks acknowledged stores, and returns
// the acknowledged id → name map.
func runCrashChild(t *testing.T, dir string, ckpt bool, minAcks int) map[int]string {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashChild$")
	cmd.Env = append(os.Environ(), "GSIM_CRASH_DIR="+dir)
	if ckpt {
		cmd.Env = append(cmd.Env, "GSIM_CRASH_CKPT=1")
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	acked := make(map[int]string)
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "OPEN-ERR") {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("child failed to open: %s", line)
		}
		var id int
		var name string
		if _, err := fmt.Sscanf(line, "ACK %d %s", &id, &name); err != nil {
			continue
		}
		if prev, dup := acked[id]; dup {
			t.Fatalf("ID %d acknowledged twice (%s, %s)", id, prev, name)
		}
		acked[id] = name
		if len(acked) >= minAcks {
			break
		}
	}
	cmd.Process.Kill() // SIGKILL: no defers, no final flush, no Close
	cmd.Wait()
	if len(acked) < minAcks {
		t.Fatalf("child died after only %d acks, want %d", len(acked), minAcks)
	}
	return acked
}

// TestKill9Recovery: concurrent ingest, kill -9 mid-flight, reopen —
// zero acknowledged writes lost, with and without a checkpoint loop
// racing the writers (the raced variant exercises rotation: acked
// records keep landing while logs rotate and segments replace them).
func TestKill9Recovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	for _, tc := range []struct {
		name string
		ckpt bool
	}{
		{"ingest-only", false},
		{"raced-with-checkpoints", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			acked := runCrashChild(t, dir, tc.ckpt, 150)

			d, err := Open(dir)
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			defer d.Close()
			for id, name := range acked {
				e, ok := d.store.Get(uint64(id))
				if !ok {
					t.Fatalf("acknowledged graph %d (%s) lost", id, name)
				}
				if e.G.Name != name {
					t.Fatalf("graph %d = %q, want %q", id, e.G.Name, name)
				}
			}
			// Unacked in-flight stores may also have reached the log —
			// at-least-once for unacked work — but never fewer than acked.
			if d.Len() < len(acked) {
				t.Fatalf("Len = %d < %d acknowledged", d.Len(), len(acked))
			}
		})
	}
}

// walFiles globs the directory's live WAL files.
func walFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*-*.log"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no WAL files in %s (err %v)", dir, err)
	}
	return paths
}

// TestRecoveryTornTail: garbage after the last complete record — the
// classic torn write of a crash mid-append — is dropped; every complete
// record before it survives.
func TestRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, WithShards(1), WithAutoCheckpoint(0))
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 10)
	for i := range ids {
		ids[i] = storeChain(t, d, fmt.Sprintf("t%d", i), 3)
	}
	// Abandon without Close, then tear the tail: a frame header promising
	// far more bytes than the file holds.
	p := walFiles(t, dir)[0]
	f, err := os.OpenFile(p, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xAB, 0xAB, 0xAB, 0xAB, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := Open(dir, WithAutoCheckpoint(0))
	if err != nil {
		t.Fatalf("torn tail broke recovery: %v", err)
	}
	defer r.Close()
	if r.Len() != 10 {
		t.Fatalf("recovered %d graphs, want 10", r.Len())
	}
	for i, id := range ids {
		wantGraph(t, r, id, fmt.Sprintf("t%d", i), 3)
	}
}

// TestRecoveryBitFlip: a flipped byte in the final record fails its CRC;
// replay keeps the intact prefix and drops the damaged tail.
func TestRecoveryBitFlip(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, WithShards(1), WithAutoCheckpoint(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		storeChain(t, d, fmt.Sprintf("f%d", i), 3)
	}
	p := walFiles(t, dir)[0]
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF // inside the last record's payload
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, WithAutoCheckpoint(0))
	if err != nil {
		t.Fatalf("bit flip broke recovery: %v", err)
	}
	defer r.Close()
	if r.Len() != 9 {
		t.Fatalf("recovered %d graphs, want 9 (intact prefix)", r.Len())
	}
	for i := 0; i < 9; i++ {
		if _, ok := r.store.Get(uint64(i)); !ok {
			t.Fatalf("graph %d from the intact prefix lost", i)
		}
	}
}

// TestRecoveryMissingSegment: a checkpointed directory with a deleted
// segment must fail Open loudly — silently serving the surviving shards
// would be data loss disguised as success.
func TestRecoveryMissingSegment(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		storeChain(t, d, fmt.Sprintf("m%d", i), 3)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*-*.bin"))
	if err != nil || len(segs) != 3 {
		t.Fatalf("segments %v (err %v), want 3", segs, err)
	}
	if err := os.Remove(segs[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open succeeded with a missing segment")
	} else if !strings.Contains(err.Error(), "segment") {
		t.Fatalf("error %v does not name the missing segment", err)
	}
}

// TestTextImport is the seeding path gsimd's "-data <dir> -db base.gsim"
// boots through: a SaveText dump opens via WithImport, re-shards to the
// configured count, lands in segmented form at the boot checkpoint,
// answers searches exactly like the source database, and subsequent boots
// ignore the (even deleted) file.
func TestTextImport(t *testing.T) {
	src := New(WithName("src"))
	names := make([]string, 10)
	for i := range names {
		names[i] = fmt.Sprintf("old%d", i)
		storeChain(t, src, names[i], 3+i%3)
	}
	// One graph whose tokens need the codec's escapes.
	odd := src.NewGraph("odd name")
	odd.AddVertex("C H")
	odd.AddVertex("")
	if err := odd.AddEdge(0, 1, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := odd.Store(); err != nil {
		t.Fatal(err)
	}
	names = append(names, "odd name")
	dump := filepath.Join(t.TempDir(), "base.gsim")
	f, err := os.Create(dump)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.SaveText(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	dir := t.TempDir()
	d, err := Open(dir, WithImport(dump), WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 11 || d.NumShards() != 3 {
		t.Fatalf("imported Len=%d shards=%d, want 11/3", d.Len(), d.NumShards())
	}
	// The boot checkpoint migrated the import to segmented form.
	if segs, _ := filepath.Glob(filepath.Join(dir, "seg-*-*.bin")); len(segs) != 3 {
		t.Fatalf("%d segments after import, want 3", len(segs))
	}
	for id := 0; id < src.Len(); id++ {
		opt := SearchOptions{Method: LSAP, Tau: 2}
		want, err := src.Search(src.Query(id), opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.Search(d.Query(id), opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Matches, want.Matches) {
			t.Fatalf("query %d: imported database answers %v, source %v", id, got.Matches, want.Matches)
		}
	}
	extra := storeChain(t, d, "new0", 4)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	if err := os.Remove(dump); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, WithImport(dump)) // stale flag: must not be consulted
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 12 {
		t.Fatalf("reopened Len = %d, want 12", r.Len())
	}
	wantGraph(t, r, extra, "new0", 4)
	seen := make(map[string]bool)
	for id := 0; id < 13; id++ {
		if e, ok := r.store.Get(uint64(id)); ok {
			seen[e.G.Name] = true
		}
	}
	for _, n := range names {
		if !seen[n] {
			t.Fatalf("imported graph %q lost", n)
		}
	}
}

// TestImportRejectsNonText: a WithImport file that is not .gsim text —
// here the bytes of a gob snapshot, the format older releases wrote —
// fails Open with an error naming the file and the expected format,
// leaves the directory without a manifest, and a retry with a good file
// succeeds.
func TestImportRejectsNonText(t *testing.T) {
	type flatGraph struct {
		Name           string
		VLabels, EdgeU []int32
	}
	var snap bytes.Buffer
	if err := gob.NewEncoder(&snap).Encode(struct {
		Name   string
		Labels []string
		Graphs []flatGraph
	}{"legacy", []string{"ε", "C"}, []flatGraph{{"g0", []int32{1, 1}, []int32{0}}}}); err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	bad := filepath.Join(tmp, "snap.bin")
	if err := os.WriteFile(bad, snap.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(tmp, "data")
	_, err := Open(dir, WithImport(bad))
	if err == nil {
		t.Fatal("Open imported a gob snapshot as text")
	}
	if msg := err.Error(); !strings.Contains(msg, bad) || !strings.Contains(msg, ".gsim text") {
		t.Fatalf("error %q does not name the file and the expected format", msg)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); !os.IsNotExist(err) {
		t.Fatalf("failed import left a manifest behind (stat err %v)", err)
	}

	good := filepath.Join(tmp, "base.gsim")
	if err := os.WriteFile(good, []byte("g a 2\nv 0 C\nv 1 N\ne 0 1 s\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir, WithImport(good))
	if err != nil {
		t.Fatalf("retry with a good file: %v", err)
	}
	defer d.Close()
	if d.Len() != 1 {
		t.Fatalf("retry imported %d graphs, want 1", d.Len())
	}
}
