package main

import (
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	d := make([]time.Duration, 100)
	for i := range d {
		d[i] = time.Duration(i+1) * time.Millisecond
	}
	for _, tc := range []struct {
		p    float64
		want time.Duration
	}{{0.5, 50 * time.Millisecond}, {0.99, 99 * time.Millisecond}, {0.999, 100 * time.Millisecond}, {1, 100 * time.Millisecond}} {
		if got := percentile(d, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile(d[:1], 0.99); got != time.Millisecond {
		t.Errorf("percentile of one sample = %v, want 1ms", got)
	}
}

// The expected values are statistics.quantiles(vals, n=4) from Python.
func TestQuartilesMatchPython(t *testing.T) {
	vals := []float64{12, 3, 7, 9, 15, 1, 8, 20, 5, 11}
	q1, q3 := quartiles(vals)
	if math.Abs(q1-4.5) > 1e-12 || math.Abs(q3-12.75) > 1e-12 {
		t.Errorf("quartiles = %v, %v; want 4.5, 12.75", q1, q3)
	}
	if m := medianF(vals); m != 8.5 {
		t.Errorf("median = %v, want 8.5", m)
	}
}

// A burst that slows a minority of the slices leaves the slice figures
// where an undisturbed window puts them.
func TestSliceFiguresIgnoreABurst(t *testing.T) {
	window := func(slow int) []sample {
		var w []sample
		for i := 0; i < 8; i++ {
			n, dur := 100, 10*time.Millisecond
			if i < slow {
				n, dur = 50, 20*time.Millisecond
			}
			for k := 0; k < n; k++ {
				w = append(w, sample{dur: dur, at: time.Duration(i)*sliceLen + time.Duration(k)*time.Millisecond})
			}
		}
		return w
	}
	for _, slow := range []int{0, 2} {
		ops, p50, p99, ok := sliceFigures(window(slow), 8)
		if !ok || ops != 100/sliceLen.Seconds() || p50 != 10 || p99 != 10 {
			t.Errorf("%d slow slices: ops %v p50 %v p99 %v ok %v; want %v, 10, 10, true", slow, ops, p50, p99, ok, 100/sliceLen.Seconds())
		}
	}
	if _, _, _, ok := sliceFigures(window(0)[:150], 8); ok {
		t.Error("a window with completions in two slices only yielded slice figures")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "b", StartNS: 30, EndNS: 60},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", StartNS: 90, EndNS: 130}, // clipped to the parent
		{ID: 5, Parent: 2, Name: "a.inner", StartNS: 10, EndNS: 25},
	}
	got := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 15, 3: 30, 4: 40, 5: 15}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	// Ladder rungs are aligned at one start, so self time is the
	// difference to the rung below.
	ladder := []span{
		{ID: 1, Parent: 2, StartNS: 5, EndNS: 5 + 30},
		{ID: 2, Parent: 3, StartNS: 5, EndNS: 5 + 70},
		{ID: 3, StartNS: 5, EndNS: 5 + 100},
	}
	if got := selfTimes(ladder); got[1] != 30 || got[2] != 40 || got[3] != 30 {
		t.Errorf("ladder self times = %v, want 30, 40, 30", got)
	}
}

func TestAdmissible(t *testing.T) {
	full := &searchReply{Matches: []wireMatch{{1, 0.95}, {2, 0.93}, {3, 0.99}}}
	isTrue := func(id int) bool { return id == 3 }
	for _, tc := range []struct {
		name     string
		filtered []wireMatch
		ok       bool
	}{
		{"subset keeping the true match", []wireMatch{{3, 0.99}}, true},
		{"equal", full.Matches, true},
		{"drops the true match", []wireMatch{{1, 0.95}}, false},
		{"extra ID", []wireMatch{{3, 0.99}, {4, 0.91}}, false},
		{"different score", []wireMatch{{3, 0.98}}, false},
	} {
		if msg := admissible(&searchReply{Matches: tc.filtered}, full, isTrue); (msg == "") != tc.ok {
			t.Errorf("%s: admissible = %q", tc.name, msg)
		}
	}
}

func TestScheduleDeterminism(t *testing.T) {
	c := &corpus{queries: make([]int, 300), pool: make([]int, 1000), popular: make([]int, 300)}
	for i := range c.popular {
		c.popular[i] = i
	}
	m := mix{opSearch: 70, opTopK: 10, opBatch: 5, opIngest: 12, opDelete: 3}
	draw := func(seed int64, client int) []op {
		s := newSchedule(seed, client, 2, m, true, c)
		ops := make([]op, 2000)
		for i := range ops {
			ops[i] = s.next()
		}
		return ops
	}
	a := draw(1, 0)
	if !reflect.DeepEqual(a, draw(1, 0)) {
		t.Fatal("one seed gave two operation sequences")
	}
	if reflect.DeepEqual(a, draw(2, 0)) {
		t.Error("seeds 1 and 2 gave the same sequence")
	}
	if reflect.DeepEqual(a, draw(1, 1)) {
		t.Error("clients 0 and 1 gave the same sequence")
	}
	// A delete is only ever scheduled for a graph the client has
	// ingested before, every kind of the mix occurs, and the two
	// clients take disjoint pool graphs.
	live, seen := 0, map[opKind]int{}
	taken := map[int]int{}
	for client := 0; client < 2; client++ {
		live = 0
		for _, o := range draw(1, client) {
			seen[o.kind]++
			switch o.kind {
			case opIngest:
				live += len(o.graphs)
				for _, g := range o.graphs {
					if prev, dup := taken[g]; dup && prev != client {
						t.Fatalf("pool graph %d scheduled by both clients", g)
					}
					taken[g] = client
				}
			case opDelete:
				if live == 0 {
					t.Fatal("delete scheduled with nothing ingested")
				}
				live--
			}
		}
	}
	for k := opKind(0); k < numOps; k++ {
		if seen[k] == 0 {
			t.Errorf("%v never scheduled", k)
		}
	}
}

// TestSmoke runs every workload end to end against a real gsimd child
// on a twentieth of the corpus with one-second windows — kill/restart
// cycles included, and for two workloads the traced pass with answer
// checker and layer ladder — and requires every metric BENCHMARK.json
// names, no failed operation and no lost graph.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots gsimd; skipped with -short")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	bin, err := buildGsimd(root, work)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(killAll)
	cfg := config{
		root: root, spec: spec, gsimd: bin, work: work, outDir: filepath.Join(work, "out"),
		seconds: 1, scale: 0.05, clients: min(runtime.NumCPU(), 2), nproc: runtime.NumCPU(),
	}
	for i := range workloads {
		w := &workloads[i]
		// The traced pass runs the untraced code too, so two workloads
		// traced and two untraced cover both modes and both span sources.
		cfg.trace = w.name == "search-prefilter" || w.name == "ingest-recover"
		rep, err := runOnce(cfg, w, 7)
		if err != nil {
			t.Fatalf("%s (trace=%v): %v", w.name, cfg.trace, err)
		}
		if !rep.Result.Correct {
			t.Errorf("%s (trace=%v): %d of %d operations failed: %v", w.name, cfg.trace, rep.Result.Failed, rep.Result.Attempted, rep.Failures)
		}
		if !cfg.trace {
			for name, m := range rep.Result.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
				}
			}
		}
	}
}
