package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gsim/internal/branch"
	"gsim/internal/graph"
)

// simulateGBD plays the paper's generative story on an actual extended
// graph: build a complete graph on v vertices with uniform labels, apply
// tau relabelling operations on uniformly chosen distinct slots (vertex
// slots and edge slots, new labels uniform over the alphabet), and measure
// the real GBD between original and edited graph.
//
// This is the end-to-end check of Section V: Lemmas 1, 2 and 4 are exact
// combinatorics for this process, and Lemma 3 approximates the branch
// collision probability; the empirical distribution of GBD must therefore
// track Λ1(τ,·) closely.
func simulateGBD(rng *rand.Rand, dict *graph.Labels, v, lv, le, tau, trials int) []float64 {
	vlabels := make([]graph.ID, lv)
	for i := range vlabels {
		vlabels[i] = dict.Intern(fmt.Sprintf("V%d", i))
	}
	elabels := make([]graph.ID, le)
	for i := range elabels {
		elabels[i] = dict.Intern(fmt.Sprintf("E%d", i))
	}
	counts := make([]float64, Support(tau)+1)
	type slot struct{ u, w int } // w < 0: vertex slot
	slots := make([]slot, 0, v+v*(v-1)/2)
	for u := 0; u < v; u++ {
		slots = append(slots, slot{u, -1})
		for w := u + 1; w < v; w++ {
			slots = append(slots, slot{u, w})
		}
	}
	for trial := 0; trial < trials; trial++ {
		g := graph.New(v)
		for i := 0; i < v; i++ {
			g.AddVertex(vlabels[rng.Intn(lv)])
		}
		for u := 0; u < v; u++ {
			for w := u + 1; w < v; w++ {
				g.MustAddEdge(u, w, elabels[rng.Intn(le)])
			}
		}
		before := branch.MultisetOf(g)
		// tau distinct slots, uniformly. A minimal GEO sequence never
		// relabels to the same label (such an op would be droppable), so
		// replacements are uniform over the OTHER labels; degenerate
		// single-label alphabets keep the no-op for the extremes test.
		pickOther := func(pool []graph.ID, cur graph.ID) graph.ID {
			if len(pool) == 1 {
				return cur
			}
			for {
				if l := pool[rng.Intn(len(pool))]; l != cur {
					return l
				}
			}
		}
		perm := rng.Perm(len(slots))
		for _, si := range perm[:tau] {
			sl := slots[si]
			if sl.w < 0 {
				g.RelabelVertex(sl.u, pickOther(vlabels, g.VertexLabel(sl.u)))
			} else {
				cur, _ := g.EdgeLabel(sl.u, sl.w)
				if err := g.RelabelEdge(sl.u, sl.w, pickOther(elabels, cur)); err != nil {
					panic(err)
				}
			}
		}
		phi := branch.GBD(before, branch.MultisetOf(g))
		if phi >= len(counts) {
			panic(fmt.Sprintf("%d relabellings changed %d branches, past the support %d", tau, phi, Support(tau)))
		}
		counts[phi]++
	}
	for i := range counts {
		counts[i] /= float64(trials)
	}
	return counts
}

func TestLambda1MatchesSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo validation skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(99))
	dict := graph.NewLabels()
	for _, tc := range []struct{ v, lv, le, tau int }{
		{5, 4, 3, 2},
		{6, 3, 4, 3},
		{7, 5, 3, 4},
	} {
		m := NewModel(tc.v, Params{LV: tc.lv, LE: tc.le, TauMax: tc.tau})
		emp := simulateGBD(rng, dict, tc.v, tc.lv, tc.le, tc.tau, 20000)
		var tv float64 // total variation distance
		for phi := range emp {
			tv += math.Abs(emp[phi]-m.Lambda1(tc.tau, phi)) / 2
		}
		// Lemmas 1, 2 and 4 are exact for this process; Lemma 3's
		// ball-colouring is an approximation, so a residual TV gap in the
		// 0.1 range is the model's own error, not a bug. The regression
		// this guards: the pre-fix simulation (or a broken Ω) sits at
		// TV ≈ 0.4+.
		if tv > 0.2 {
			t.Fatalf("v=%d lv=%d le=%d τ=%d: TV distance %.4f between simulation and Λ1\nemp=%v",
				tc.v, tc.lv, tc.le, tc.tau, tv, fmtDist(emp))
		}
		// The means must agree within the same modelling error.
		me, mm := distMean(emp), modelMean(m, tc.tau)
		if math.Abs(me-mm) > 0.5 {
			t.Fatalf("v=%d τ=%d: simulated mean GBD %.3f vs model %.3f", tc.v, tc.tau, me, mm)
		}
	}
}

func distMean(p []float64) float64 {
	var s float64
	for phi, v := range p {
		s += float64(phi) * v
	}
	return s
}

func modelMean(m *Model, tau int) float64 {
	var s float64
	for phi := 0; phi <= Support(tau); phi++ {
		s += float64(phi) * m.Lambda1(tau, phi)
	}
	return s
}

func fmtDist(p []float64) string {
	out := ""
	for i, v := range p {
		out += fmt.Sprintf("[%d]%.3f ", i, v)
	}
	return out
}

// TestSimulationExtremes: with a single-label alphabet no relabel ever
// changes a branch type (D small), while with a huge alphabet every touched
// branch changes — the two ends the Ω3 coloring model interpolates.
func TestSimulationExtremes(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo validation skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(100))
	dict := graph.NewLabels()

	// Huge alphabet: GBD should concentrate near its maximum (every edit
	// lands a fresh label, every touched branch differs).
	emp := simulateGBD(rng, dict, 6, 40, 40, 3, 8000)
	m := NewModel(6, Params{LV: 40, LE: 40, TauMax: 3})
	empHi, modelHi := 0.0, 0.0
	for phi := 4; phi < len(emp); phi++ {
		empHi += emp[phi]
		modelHi += m.Lambda1(3, phi)
	}
	if empHi < 0.5 || modelHi < 0.5 {
		t.Fatalf("large-alphabet mass above ϕ=3: sim %.3f model %.3f; want both high", empHi, modelHi)
	}

	// Single label everywhere: relabels are no-ops, GBD ≡ 0.
	emp = simulateGBD(rng, dict, 6, 1, 1, 3, 2000)
	if emp[0] != 1 {
		t.Fatalf("degenerate alphabet: P[GBD=0] = %v, want 1", emp[0])
	}
}
