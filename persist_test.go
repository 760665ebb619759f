package gsim

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// fittedDatabase builds a small database and runs the offline stage.
func fittedDatabase(t *testing.T) *Database {
	t.Helper()
	d := New(WithName("persist"))
	var b strings.Builder
	for i := 0; i < 16; i++ {
		n := 3 + i%4
		fmt.Fprintf(&b, "g p%d %d\n", i, n)
		for v := 0; v < n; v++ {
			fmt.Fprintf(&b, "v %d L%d\n", v, (v*7+i)%5)
		}
		for v := 0; v+1 < n; v++ {
			fmt.Fprintf(&b, "e %d %d e%d\n", v, v+1, (v+i)%2)
		}
	}
	if _, err := d.LoadText(strings.NewReader(b.String())); err != nil {
		t.Fatal(err)
	}
	if err := d.BuildPriors(OfflineConfig{TauMax: 4, SamplePairs: 2000, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestPriorsRoundTripExact: LoadPriors restores TauMax, the GBD prior
// density and the per-size Jeffreys prior rows bit-for-bit — the
// artifacts a served database needs to answer GBDA queries identically
// after a restart.
func TestPriorsRoundTripExact(t *testing.T) {
	src := fittedDatabase(t)
	var buf bytes.Buffer
	if err := src.SavePriors(&buf); err != nil {
		t.Fatal(err)
	}

	dst := New(WithName("restored"))
	if err := dst.LoadPriors(&buf); err != nil {
		t.Fatal(err)
	}
	if dst.TauMax() != src.TauMax() {
		t.Fatalf("TauMax %d, want %d", dst.TauMax(), src.TauMax())
	}
	for _, phi := range []float64{0, 0.05, 0.17, 0.42, 0.9, 1} {
		want, err := src.GBDPriorProb(phi)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dst.GBDPriorProb(phi)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("GBDPriorProb(%g) = %v, want %v", phi, got, want)
		}
	}
	for _, v := range []int{2, 5, 9, 14} {
		want, err := src.GEDPriorRow(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dst.GEDPriorRow(v)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("GEDPriorRow(%d) length %d, want %d", v, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("GEDPriorRow(%d)[%d] = %v, want %v", v, i, got[i], want[i])
			}
		}
	}
	// The epoch moved: restored priors invalidate cached results.
	if dst.Epoch() == 0 {
		t.Fatal("LoadPriors did not bump the epoch")
	}
}

// TestLoadPriorsTruncated: every proper prefix of a valid snapshot fails
// to load and leaves the database untouched.
func TestLoadPriorsTruncated(t *testing.T) {
	src := fittedDatabase(t)
	var buf bytes.Buffer
	if err := src.SavePriors(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{0, 1, len(full) / 2, len(full) - 1} {
		d := New(WithName("trunc"))
		if err := d.LoadPriors(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncated snapshot (%d of %d bytes) loaded", cut, len(full))
		}
		if d.HasPriors() {
			t.Fatalf("failed load (%d bytes) left priors set", cut)
		}
	}
}

// encodeSnapshot gobs a handcrafted priorSnapshot.
func encodeSnapshot(t *testing.T, snap priorSnapshot) *bytes.Reader {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(buf.Bytes())
}

// TestLoadPriorsCorrupt: structurally valid gob with semantically corrupt
// contents is rejected, field by field.
func TestLoadPriorsCorrupt(t *testing.T) {
	valid := priorSnapshot{
		TauMax: 3, LV: 4, LE: 2, Floor: 1e-9,
		Weights: []float64{0.5, 0.5},
		Mus:     []float64{0.1, 0.3},
		Sigmas:  []float64{0.05, 0.1},
	}
	cases := []struct {
		name string
		mut  func(s *priorSnapshot)
	}{
		{"zero tau", func(s *priorSnapshot) { s.TauMax = 0 }},
		{"negative tau", func(s *priorSnapshot) { s.TauMax = -2 }},
		{"no components", func(s *priorSnapshot) { s.Weights, s.Mus, s.Sigmas = nil, nil, nil }},
		{"mismatched mus", func(s *priorSnapshot) { s.Mus = s.Mus[:1] }},
		{"mismatched sigmas", func(s *priorSnapshot) { s.Sigmas = append(s.Sigmas, 0.2) }},
		{"zero sigma", func(s *priorSnapshot) { s.Sigmas = []float64{0.05, 0} }},
		{"negative sigma", func(s *priorSnapshot) { s.Sigmas = []float64{-0.05, 0.1} }},
	}
	for _, tc := range cases {
		snap := valid
		snap.Weights = append([]float64(nil), valid.Weights...)
		snap.Mus = append([]float64(nil), valid.Mus...)
		snap.Sigmas = append([]float64(nil), valid.Sigmas...)
		tc.mut(&snap)
		d := New(WithName("corrupt"))
		if err := d.LoadPriors(encodeSnapshot(t, snap)); err == nil {
			t.Fatalf("%s: corrupt snapshot loaded", tc.name)
		}
		if d.HasPriors() {
			t.Fatalf("%s: failed load left priors set", tc.name)
		}
	}
	// The unmutated control must load.
	d := New(WithName("control"))
	if err := d.LoadPriors(encodeSnapshot(t, valid)); err != nil {
		t.Fatalf("control snapshot rejected: %v", err)
	}
	if !d.HasPriors() || d.TauMax() != 3 {
		t.Fatalf("control snapshot loaded oddly: priors=%v tauMax=%d", d.HasPriors(), d.TauMax())
	}
}

// TestLoadPriorsGarbage: non-gob bytes fail cleanly.
func TestLoadPriorsGarbage(t *testing.T) {
	d := New(WithName("garbage"))
	if err := d.LoadPriors(strings.NewReader("this is not a gob stream")); err == nil {
		t.Fatal("garbage input loaded")
	}
}

// TestPriorFitsRacingSearches: a search's priors and its epoch come from
// one install. One goroutine alternates LoadPriors of two snapshots of
// one store, TauMax 5 and TauMax 2, while searchers run GBDA at τ̂ = 4,
// which only the TauMax-5 priors admit. The store does not change, so
// each install moves the epoch by one and every TauMax-5 install lands on
// the same parity: a search that succeeds must report it, and one that
// fails must fail for its threshold.
func TestPriorFitsRacingSearches(t *testing.T) {
	d := fittedDatabase(t)
	snapshot := func(tauMax int) []byte {
		if err := d.BuildPriors(OfflineConfig{TauMax: tauMax, SamplePairs: 2000, Seed: 3}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := d.SavePriors(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	wide, narrow := snapshot(5), snapshot(2)
	load := func(snap []byte) {
		if err := d.LoadPriors(bytes.NewReader(snap)); err != nil {
			t.Error(err)
		}
	}
	load(wide)
	parity := d.Epoch() % 2
	q := d.Query(0)

	stop := make(chan struct{})
	var fitter sync.WaitGroup
	fitter.Add(1)
	go func() {
		defer fitter.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			load(narrow)
			load(wide)
		}
	}()
	var found, refused atomic.Int64
	var searchers sync.WaitGroup
	for w := 0; w < 2; w++ {
		searchers.Add(1)
		go func() {
			defer searchers.Done()
			for i := 0; i < 200; i++ {
				res, err := d.Search(q, SearchOptions{Method: GBDA, Tau: 4})
				switch {
				case err == nil && res.Epoch%2 != parity:
					t.Errorf("a search succeeded at epoch %d, a TauMax-2 install's", res.Epoch)
					return
				case err == nil:
					found.Add(1)
				case !errors.Is(err, ErrBadOptions):
					t.Errorf("search failed with %v, want ErrBadOptions", err)
					return
				default:
					refused.Add(1)
				}
			}
		}()
	}
	searchers.Wait()
	close(stop)
	fitter.Wait()
	t.Logf("%d searches succeeded, %d were refused", found.Load(), refused.Load())
}
