package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestFitGBDPriorBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]float64, 2000)
	for i := range samples {
		// Bimodal: small intra-cluster GBDs and large cross-cluster GBDs,
		// the shape of Figure 5.
		if rng.Intn(3) == 0 {
			samples[i] = math.Abs(rng.NormFloat64() * 1.5)
		} else {
			samples[i] = 12 + rng.NormFloat64()*2
		}
		samples[i] = math.Round(samples[i])
	}
	p, err := FitGBDPrior(samples, 3)
	if err != nil {
		t.Fatal(err)
	}
	// High-mass region beats the floor comfortably.
	if p.Prob(12) < 100*p.Floor {
		t.Fatalf("P[GBD=12] = %v suspiciously small", p.Prob(12))
	}
	// Far outside the support the floor kicks in.
	if got := p.Prob(500); got != p.Floor {
		t.Fatalf("P[GBD=500] = %v, want floor %v", got, p.Floor)
	}
	// Discretised mass over the realistic range ≈ 1.
	var sum float64
	for phi := 0.0; phi <= 40; phi++ {
		sum += p.Mix.DiscreteProb(phi)
	}
	if sum < 0.95 || sum > 1.01 {
		t.Fatalf("discretised mass = %v", sum)
	}
}

func TestFitGBDPriorEmpty(t *testing.T) {
	if _, err := FitGBDPrior(nil, 3); err == nil {
		t.Fatal("expected error for empty samples")
	}
}

func TestGEDPriorIsProperDistribution(t *testing.T) {
	for _, v := range []int{4, 10, 30, 1000} {
		m := NewModel(v, testParams(10))
		p := m.GEDPrior()
		if len(p) != 11 {
			t.Fatalf("prior length %d", len(p))
		}
		var sum float64
		for tau, pr := range p {
			if pr < 0 || math.IsNaN(pr) {
				t.Fatalf("v=%d: P[GED=%d] = %v", v, tau, pr)
			}
			sum += pr
		}
		if !almostEq(sum, 1, 1e-9) {
			t.Fatalf("v=%d: prior sums to %v", v, sum)
		}
	}
}

func TestGEDPriorCached(t *testing.T) {
	m := NewModel(12, testParams(5))
	a := m.GEDPrior()
	b := m.GEDPrior()
	if &a[0] != &b[0] {
		t.Fatal("GEDPrior not cached")
	}
}

func TestGEDPriorVariesWithV(t *testing.T) {
	// Figure 6 shows the prior changing with |V'1|; two very different
	// sizes should not produce identical tables.
	pa := NewModel(5, testParams(8)).GEDPrior()
	pb := NewModel(500, testParams(8)).GEDPrior()
	same := true
	for i := range pa {
		if !almostEq(pa[i], pb[i], 1e-9) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("Jeffreys prior identical for v=5 and v=500")
	}
}

func TestWorkspaceCachesModels(t *testing.T) {
	ws := NewWorkspace(testParams(5))
	a := ws.Model(17)
	b := ws.Model(17)
	if a != b {
		t.Fatal("Workspace built two models for one size")
	}
	if modelsBuilt(ws) != 1 {
		t.Fatalf("built %d models, want 1", modelsBuilt(ws))
	}
	_ = ws.Model(18)
	if modelsBuilt(ws) != 2 {
		t.Fatalf("built %d models after a second size, want 2", modelsBuilt(ws))
	}
}

func TestWorkspaceConcurrentAccess(t *testing.T) {
	ws := NewWorkspace(testParams(4))
	var wg sync.WaitGroup
	models := make([]*Model, 16)
	for i := range models {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			models[i] = ws.Model(25)
			_ = models[i].GEDPrior()
			_ = models[i].Lambda1All(i % 8)
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(models); i++ {
		if models[i] != models[0] {
			t.Fatal("concurrent Workspace.Model returned distinct instances")
		}
	}
}

// TestWorkspaceCachesGEDPrior: a size's model and its Jeffreys prior are
// built once; fetching the prior again returns the same table.
func TestWorkspaceCachesGEDPrior(t *testing.T) {
	ws := NewWorkspace(testParams(4))
	sizes := []int{5, 9, 13, 21, 34}
	for _, v := range sizes {
		a := ws.Model(v).GEDPrior()
		b := ws.Model(v).GEDPrior()
		if &a[0] != &b[0] {
			t.Fatalf("prior for v=%d rebuilt", v)
		}
	}
	if modelsBuilt(ws) != len(sizes) {
		t.Fatalf("built %d models, want %d", modelsBuilt(ws), len(sizes))
	}
}

func TestGEDPriorNotDegenerateAtLargeV(t *testing.T) {
	// The regression this pins: with the analytic score, the continuous
	// extension of Lemma 2 blows up at large v and the prior collapsed
	// onto τ = τ̂. The discrete-score fallback must keep the prior
	// decaying in τ.
	m := NewModel(1000, Params{LV: 20, LE: 10, TauMax: 30})
	p := m.GEDPrior()
	if p[30] > 0.2 {
		t.Fatalf("prior mass %v at τ=30 — degenerate again", p[30])
	}
	if p[0] < p[30] {
		t.Fatalf("prior not decaying: p[0]=%v p[30]=%v", p[0], p[30])
	}
	var sum float64
	for _, v := range p {
		sum += v
	}
	if !almostEq(sum, 1, 1e-9) {
		t.Fatalf("prior sums to %v", sum)
	}
}

func TestGEDPriorScoreRegimes(t *testing.T) {
	// Small graphs use the analytic score, huge ones the discrete one.
	small := NewModel(10, testParams(8))
	if small.wildDeriv {
		t.Fatal("v=10 flagged as wild-derivative regime")
	}
	big := NewModel(1000, Params{LV: 20, LE: 10, TauMax: 30})
	if !big.wildDeriv {
		t.Fatal("v=1000, τ̂=30 not flagged as wild-derivative regime")
	}
}

// modelsBuilt counts the sizes w has built a model for.
func modelsBuilt(w *Workspace) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.models)
}

// innerCached counts m's cached ϕ entries.
func innerCached(m *Model) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.innerCache)
}
