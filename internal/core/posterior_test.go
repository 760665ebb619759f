package core

import (
	"math"
	"math/rand"
	"testing"
)

// fixedPrior builds a searcher over a synthetic GBD prior resembling the
// Figure 5 shape: most pairs far apart, a small mode near zero.
func fixedPrior(t testing.TB, tauMax int) *Searcher {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	samples := make([]float64, 3000)
	for i := range samples {
		if rng.Intn(4) == 0 {
			samples[i] = math.Round(math.Abs(rng.NormFloat64() * 2))
		} else {
			samples[i] = math.Round(14 + rng.NormFloat64()*3)
		}
	}
	gbd, err := FitGBDPrior(samples, 3)
	if err != nil {
		t.Fatal(err)
	}
	return NewSearcher(NewWorkspace(Params{LV: 4, LE: 3, TauMax: tauMax}), gbd)
}

func TestPosteriorDecreasesWithPhi(t *testing.T) {
	s := fixedPrior(t, 5)
	// A pair with identical branch structure should look much more
	// similar than one with every branch different.
	small := s.Posterior(20, 0)
	big := s.Posterior(20, 15)
	if small <= big {
		t.Fatalf("Φ(ϕ=0) = %v not above Φ(ϕ=15) = %v", small, big)
	}
	if big < 0 {
		t.Fatalf("negative posterior %v", big)
	}
}

func TestPosteriorShortCircuitLargePhi(t *testing.T) {
	s := fixedPrior(t, 5)
	for _, phi := range []int{Support(5) + 1, 16} {
		if got := s.Posterior(100, phi); got != 0 {
			t.Fatalf("Φ with ϕ = %d > 2τ̂ = %v, want hard 0", phi, got)
		}
	}
	// The short circuit must not build a model for that size.
	if s.WS.Sizes() != 0 {
		t.Fatalf("short circuit built %d models", s.WS.Sizes())
	}
}

func TestPosteriorZeroPhiNearCertainty(t *testing.T) {
	s := fixedPrior(t, 5)
	// ϕ = 0 means identical branch multisets; GED ≤ 5 should be highly
	// probable under any reasonable prior.
	if got := s.Posterior(30, 0); got < 0.5 {
		t.Fatalf("Φ(ϕ=0) = %v, expected strong acceptance", got)
	}
}

func TestDecide(t *testing.T) {
	if !Decide(0.91, 0.9) || Decide(0.89, 0.9) {
		t.Fatal("Decide threshold broken")
	}
	if !Decide(0.9, 0.9) {
		t.Fatal("Decide must accept at equality")
	}
}

func TestPosteriorV1UsesFixedV(t *testing.T) {
	s := fixedPrior(t, 4)
	s.FixedV = 25
	_ = s.Posterior(999_999, 3) // huge pair size must be ignored
	if s.WS.Sizes() != 1 {
		t.Fatalf("built %d models, want 1 (fixed v)", s.WS.Sizes())
	}
	if s.String() != "GBDA-V1(v=25)" {
		t.Fatalf("String() = %q", s.String())
	}
}

func TestPosteriorV2Rounding(t *testing.T) {
	s := fixedPrior(t, 4)
	s.Weight = 0.5
	// vmax=10, intersect=8: VGBD = 10 − 0.5·8 = 6 → ϕ = 6.
	got := s.PosteriorVGBD(10, 8)
	want := s.Posterior(10, 6)
	if got != want {
		t.Fatalf("PosteriorVGBD = %v, want %v", got, want)
	}
	if s.String() != "GBDA-V2(w=0.5)" {
		t.Fatalf("String() = %q", s.String())
	}
	// Weight defaulting: w ≤ 0 behaves as plain GBD.
	s2 := fixedPrior(t, 4)
	s2.Weight = 0
	if s2.PosteriorVGBD(10, 8) != s2.Posterior(10, 2) {
		t.Fatal("zero weight should fall back to plain GBD")
	}
	if s2.String() != "GBDA" {
		t.Fatalf("String() = %q", s2.String())
	}
}

func TestPosteriorV2NegativeClamp(t *testing.T) {
	s := fixedPrior(t, 4)
	s.Weight = 2
	// vmax=4, intersect=4: VGBD = 4 − 8 = −4 → clamped to ϕ = 0.
	if got, want := s.PosteriorVGBD(4, 4), s.Posterior(4, 0); got != want {
		t.Fatalf("clamped posterior %v, want %v", got, want)
	}
}

// TestPosteriorExample7Shape re-enacts Example 7: with the Figure 1 pair
// (v = 4, ϕ = 3, τ̂ = 3) and the paper's assumed flat ratio Λ3/Λ2 = 0.8 the
// posterior is 0.8595. We reproduce it by bypassing the fitted priors.
func TestPosteriorExample7Shape(t *testing.T) {
	m := NewModel(4, Params{LV: 3, LE: 3, TauMax: 3})
	vals := m.Lambda1All(3)
	var phiSum float64
	for tau := 0; tau <= 3; tau++ {
		phiSum += vals[tau] * 0.8
	}
	if !almostEq(phiSum, 0.8595, 2e-3) {
		t.Fatalf("Example 7 posterior = %v, want ≈0.8595", phiSum)
	}
	if !Decide(phiSum, 0.8) {
		t.Fatal("Example 7: G2 must enter the result set at γ = 0.8")
	}
}

// Decide reports whether a pair with the given posterior passes the
// probability threshold γ (Algorithm 1, Step 4).
func Decide(posterior, gamma float64) bool { return posterior >= gamma }
