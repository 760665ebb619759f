package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// sameBits is bit-for-bit float equality: the table must reproduce the
// direct evaluation exactly, including any degenerate NaN a tiny model
// yields (NaN != NaN under ==).
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// tableFixture builds a small workspace + GBD prior pair the table tests
// share. The prior is fitted on a synthetic GBD sample so Λ2 exercises the
// real GMM path.
func tableFixture(t testing.TB, tauMax int) (*Workspace, *GBDPrior) {
	t.Helper()
	ws := NewWorkspace(Params{LV: 6, LE: 3, TauMax: tauMax})
	rng := rand.New(rand.NewSource(11))
	samples := make([]float64, 400)
	for i := range samples {
		samples[i] = float64(rng.Intn(12)) + rng.Float64()
	}
	prior, err := FitGBDPrior(samples, 2)
	if err != nil {
		t.Fatal(err)
	}
	return ws, prior
}

// TestPosteriorTableMatchesDirect: every table cell must equal the direct
// PosteriorTau evaluation bit for bit, across sizes (prebuilt and
// miss-path), ϕ values (including the ϕ > 2τ short circuit) and
// thresholds, for the plain searcher and both variants.
func TestPosteriorTableMatchesDirect(t *testing.T) {
	ws, prior := tableFixture(t, 6)
	configs := []struct {
		name   string
		fixedV int
		weight float64
	}{
		{"GBDA", 0, 0},
		{"V1", 7, 0},
		{"V2", 0, 0.5},
		{"V2w", 0, 0.8},
	}
	sizes := []int{3, 5, 9}
	for _, cfg := range configs {
		s := &Searcher{WS: ws, GBD: prior, FixedV: cfg.fixedV, Weight: cfg.weight}
		for _, tau := range []int{2, 4, 6} {
			tbl := ws.PosteriorTable(s, tau, sizes)
			if tbl.Tau() != tau {
				t.Fatalf("%s tau=%d: table built for %d", cfg.name, tau, tbl.Tau())
			}
			// 11 covers the miss path (not in sizes); 1 covers tiny graphs.
			for _, v := range []int{1, 3, 5, 9, 11} {
				for phi := 0; phi <= 3*tau+2; phi++ {
					got := tbl.Posterior(v, phi)
					want := s.PosteriorTau(v, phi, tau)
					if !sameBits(got, want) {
						t.Fatalf("%s tau=%d: table Φ(%d,%d) = %v, direct %v", cfg.name, tau, v, phi, got, want)
					}
				}
				for inter := 0; inter <= v; inter++ {
					got := tbl.PosteriorVGBD(v, inter, cfg.weight)
					want := s.PosteriorVGBDTau(v, inter, tau)
					if !sameBits(got, want) {
						t.Fatalf("%s tau=%d: table VGBD Φ(%d,|∩|=%d) = %v, direct %v", cfg.name, tau, v, inter, got, want)
					}
				}
			}
		}
	}
}

// TestWorkspaceTableCache: one table per (τ, FixedV) configuration;
// distinct configurations never share a table, while V2 weights — a
// lookup-time parameter a client controls per request — always do, so
// query traffic cannot grow the cache.
func TestWorkspaceTableCache(t *testing.T) {
	ws, prior := tableFixture(t, 5)
	s := &Searcher{WS: ws, GBD: prior}
	a := ws.PosteriorTable(s, 3, []int{4})
	if b := ws.PosteriorTable(&Searcher{WS: ws, GBD: prior}, 3, []int{4}); b != a {
		t.Fatal("same configuration did not share the cached table")
	}
	if c := ws.PosteriorTable(s, 4, []int{4}); c == a {
		t.Fatal("distinct tau shared a table")
	}
	if d := ws.PosteriorTable(&Searcher{WS: ws, GBD: prior, Weight: 0.5}, 3, []int{4}); d != a {
		t.Fatal("V2 weight split the table cache — arbitrary request weights would grow it without bound")
	}
	if e := ws.PosteriorTable(&Searcher{WS: ws, GBD: prior, FixedV: 4}, 3, []int{4}); e == a {
		t.Fatal("distinct FixedV shared a table")
	}
	tables, bytes := ws.TableStats()
	if tables != 3 || bytes <= 0 {
		t.Fatalf("TableStats = %d tables, %d bytes", tables, bytes)
	}
	// Clamping: a tau beyond the workspace ceiling folds onto the ceiling's
	// table rather than growing rows past the model's domain.
	f := ws.PosteriorTable(s, 99, []int{4})
	if f.Tau() != ws.TauMax {
		t.Fatalf("unclamped table tau %d", f.Tau())
	}
}

// TestPosteriorTableConcurrentMiss: concurrent lookups racing miss-path row
// builds must stay consistent (run under -race) and agree with the direct
// evaluation.
func TestPosteriorTableConcurrentMiss(t *testing.T) {
	ws, prior := tableFixture(t, 4)
	s := &Searcher{WS: ws, GBD: prior}
	tbl := ws.PosteriorTable(s, 4, []int{3})
	want := make(map[int]float64)
	for v := 1; v <= 8; v++ {
		want[v] = s.PosteriorTau(v, 2, 4)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v := 1 + (i+w)%8
				if got := tbl.Posterior(v, 2); !sameBits(got, want[v]) {
					t.Errorf("concurrent Φ(%d,2) = %v, want %v", v, got, want[v])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestTableRetiresInnerCache: building a table must clear the ϕ-cache of
// every model it touched — the satellite fix for unbounded innerCache
// growth (each distinct ϕ used to pin an O(τ̂·m) slice forever).
func TestTableRetiresInnerCache(t *testing.T) {
	ws, prior := tableFixture(t, 5)
	s := &Searcher{WS: ws, GBD: prior}
	// Direct use grows the cache...
	m := ws.Model(6)
	_ = s.PosteriorTau(6, 2, 5)
	if innerCached(m) == 0 {
		t.Fatal("direct PosteriorTau left no cached inner tables — test premise broken")
	}
	// ...table construction folds it into rows and retires it.
	ws.PosteriorTable(s, 5, []int{6, 8})
	if n := innerCached(m); n != 0 {
		t.Fatalf("inner cache holds %d entries after table build", n)
	}
	if n := innerCached(ws.Model(8)); n != 0 {
		t.Fatalf("inner cache of second size holds %d entries after table build", n)
	}
	// The miss path retires too.
	tbl := ws.PosteriorTable(s, 5, []int{6, 8})
	_ = tbl.Posterior(9, 1)
	if n := innerCached(ws.Model(9)); n != 0 {
		t.Fatalf("inner cache holds %d entries after miss-path row build", n)
	}
}
