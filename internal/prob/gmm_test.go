package prob

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func sampleMixture(rng *rand.Rand, n int, weights []float64, comps []Normal) []float64 {
	data := make([]float64, n)
	for i := range data {
		u := rng.Float64()
		var acc float64
		idx := len(weights) - 1
		for j, w := range weights {
			acc += w
			if u < acc {
				idx = j
				break
			}
		}
		data[i] = comps[idx].Mu + comps[idx].Sigma*rng.NormFloat64()
	}
	return data
}

func TestFitGMMRecoversTwoComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	trueW := []float64{0.4, 0.6}
	trueC := []Normal{{Mu: 0, Sigma: 1}, {Mu: 10, Sigma: 1.5}}
	data := sampleMixture(rng, 4000, trueW, trueC)

	m, err := FitGMM(data, GMMConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Sort components by mean for comparison.
	i0, i1 := 0, 1
	if m.Comps[0].Mu > m.Comps[1].Mu {
		i0, i1 = 1, 0
	}
	if math.Abs(m.Comps[i0].Mu-0) > 0.3 || math.Abs(m.Comps[i1].Mu-10) > 0.3 {
		t.Fatalf("means %v, %v; want ≈0, ≈10", m.Comps[i0].Mu, m.Comps[i1].Mu)
	}
	if math.Abs(m.Weights[i0]-0.4) > 0.05 {
		t.Fatalf("weight %v, want ≈0.4", m.Weights[i0])
	}
}

func TestFitGMMWeightsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := sampleMixture(rng, 500, []float64{1}, []Normal{{Mu: 3, Sigma: 2}})
	for k := 1; k <= 4; k++ {
		m, err := FitGMM(data, GMMConfig{K: k})
		if err != nil {
			t.Fatal(err)
		}
		var s float64
		for _, w := range m.Weights {
			s += w
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("K=%d: weights sum to %v", k, s)
		}
		for _, c := range m.Comps {
			if c.Sigma <= 0 {
				t.Fatalf("K=%d: non-positive sigma %v", k, c.Sigma)
			}
		}
	}
}

func TestFitGMMEmptyData(t *testing.T) {
	if _, err := FitGMM(nil, GMMConfig{}); err == nil {
		t.Fatal("expected error on empty data")
	}
}

func TestFitGMMConstantData(t *testing.T) {
	data := make([]float64, 100)
	for i := range data {
		data[i] = 7
	}
	m, err := FitGMM(data, GMMConfig{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Collapses to one component pinned at 7 with floored variance.
	if len(m.Comps) != 1 {
		t.Fatalf("constant data produced %d components", len(m.Comps))
	}
	if math.Abs(m.Comps[0].Mu-7) > 1e-9 {
		t.Fatalf("mu = %v, want 7", m.Comps[0].Mu)
	}
	if m.DiscreteProb(7) < 0.9 {
		t.Fatalf("P[6.5,7.5] = %v, want ≈1", m.DiscreteProb(7))
	}
}

func TestGMMDensityIntegratesToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data := sampleMixture(rng, 1000, []float64{0.5, 0.5}, []Normal{{Mu: 2, Sigma: 1}, {Mu: 8, Sigma: 2}})
	m, err := FitGMM(data, GMMConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Trapezoid integration over a wide window.
	var integral float64
	const step = 0.01
	for x := -20.0; x < 40; x += step {
		integral += m.PDF(x) * step
	}
	if math.Abs(integral-1) > 1e-3 {
		t.Fatalf("∫PDF = %v", integral)
	}
	// CDF limits.
	if m.CDF(-1e6) > 1e-9 || math.Abs(m.CDF(1e6)-1) > 1e-9 {
		t.Fatal("CDF limits wrong")
	}
}

func TestGMMDiscreteProbContinuityCorrection(t *testing.T) {
	m := &GMM{Weights: []float64{1}, Comps: []Normal{{Mu: 5, Sigma: 2}}}
	want := Normal{Mu: 5, Sigma: 2}.IntervalProb(4.5, 5.5)
	if got := m.DiscreteProb(5); math.Abs(got-want) > 1e-12 {
		t.Fatalf("DiscreteProb(5) = %v, want %v", got, want)
	}
	// Summing the discretised pmf over a wide integer range ≈ 1 (Eq. 14).
	var sum float64
	for phi := -40; phi <= 60; phi++ {
		sum += m.DiscreteProb(float64(phi))
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("discretised mass = %v", sum)
	}
}

func TestGMMMoreComponentsNeverHurtLikelihoodMuch(t *testing.T) {
	// Sanity for the K-ablation: with more components the achieved mean
	// log-likelihood should not collapse.
	rng := rand.New(rand.NewSource(3))
	data := sampleMixture(rng, 1500, []float64{0.3, 0.7}, []Normal{{Mu: 0, Sigma: 1}, {Mu: 6, Sigma: 1}})
	ll1 := mustFit(t, data, 1).MeanLogLikelihood(data)
	ll2 := mustFit(t, data, 2).MeanLogLikelihood(data)
	ll4 := mustFit(t, data, 4).MeanLogLikelihood(data)
	if ll2 < ll1-1e-6 {
		t.Fatalf("K=2 (%v) worse than K=1 (%v)", ll2, ll1)
	}
	if ll4 < ll2-0.05 {
		t.Fatalf("K=4 (%v) much worse than K=2 (%v)", ll4, ll2)
	}
}

func mustFit(t *testing.T, data []float64, k int) *GMM {
	t.Helper()
	m, err := FitGMM(data, GMMConfig{K: k})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGMMFitIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := sampleMixture(rng, 800, []float64{0.5, 0.5}, []Normal{{Mu: 1, Sigma: 1}, {Mu: 9, Sigma: 1}})
	a := mustFit(t, data, 3)
	b := mustFit(t, data, 3)
	for i := range a.Comps {
		if a.Comps[i] != b.Comps[i] || a.Weights[i] != b.Weights[i] {
			t.Fatal("two fits on identical data disagree")
		}
	}
}

// fitGMMRef is FitGMM as it was before the E step went per distinct
// value: every point's responsibilities and log-normaliser evaluated on
// their own. FitGMM must match it bit for bit.
func fitGMMRef(data []float64, cfg GMMConfig) *GMM {
	cfg = cfg.withDefaults()
	seen := make(map[float64]struct{}, len(data))
	for _, x := range data {
		seen[x] = struct{}{}
	}
	k := min(cfg.K, len(seen), len(data))
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	mean, variance := meanVar(data)
	if variance < cfg.VarFloor {
		variance = cfg.VarFloor
	}
	m := &GMM{Weights: make([]float64, k), Comps: make([]Normal, k)}
	for i := 0; i < k; i++ {
		q := sorted[(2*i+1)*len(sorted)/(2*k)]
		m.Weights[i] = 1 / float64(k)
		m.Comps[i] = Normal{Mu: q, Sigma: math.Sqrt(variance)}
	}
	if k == 1 {
		m.Weights[0] = 1
		m.Comps[0] = Normal{Mu: mean, Sigma: math.Sqrt(variance)}
		return m
	}
	resp := make([][]float64, k)
	for i := range resp {
		resp[i] = make([]float64, len(data))
	}
	prevLL := math.Inf(-1)
	for iter := 0; iter < cfg.MaxIter; iter++ {
		var ll float64
		for j, x := range data {
			logs := make([]float64, k)
			for i := range m.Comps {
				logs[i] = math.Log(m.Weights[i]) + m.Comps[i].LogPDF(x)
			}
			norm := LogSumExp(logs...)
			ll += norm
			for i := range m.Comps {
				resp[i][j] = math.Exp(logs[i] - norm)
			}
		}
		for i := 0; i < k; i++ {
			var nk, mu float64
			for j, x := range data {
				nk += resp[i][j]
				mu += resp[i][j] * x
			}
			if nk < 1e-12 {
				m.Weights[i] = 1e-6
				m.Comps[i] = Normal{Mu: sorted[len(sorted)/2], Sigma: math.Sqrt(variance)}
				continue
			}
			mu /= nk
			var v float64
			for j, x := range data {
				d := x - mu
				v += resp[i][j] * d * d
			}
			v /= nk
			if v < cfg.VarFloor {
				v = cfg.VarFloor
			}
			m.Weights[i] = nk / float64(len(data))
			m.Comps[i] = Normal{Mu: mu, Sigma: math.Sqrt(v)}
		}
		normalize(m.Weights)
		meanLL := ll / float64(len(data))
		if meanLL-prevLL < cfg.Tol && iter > 0 {
			break
		}
		prevLL = meanLL
	}
	return m
}

// sameBits reports where two fits differ in any bit, or "" when they
// are identical.
func sameBits(got, want *GMM) string {
	if len(got.Comps) != len(want.Comps) || len(got.Weights) != len(want.Weights) {
		return fmt.Sprintf("%d components, want %d", len(got.Comps), len(want.Comps))
	}
	for i := range want.Comps {
		for _, p := range [][3]float64{
			{0, got.Weights[i], want.Weights[i]},
			{1, got.Comps[i].Mu, want.Comps[i].Mu},
			{2, got.Comps[i].Sigma, want.Comps[i].Sigma},
		} {
			if math.Float64bits(p[1]) != math.Float64bits(p[2]) {
				return fmt.Sprintf("component %d %s = %v, want %v", i, [3]string{"weight", "mu", "sigma"}[int(p[0])], p[1], p[2])
			}
		}
	}
	return ""
}

func TestFitGMMMatchesPerPointEM(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 3, 7, 40, 333, 1000, 5000} {
		// GBD-shaped integers: a few dozen distinct values, skewed.
		integers := make([]float64, n)
		for j := range integers {
			integers[j] = float64(rng.Intn(8) + rng.Intn(30)*rng.Intn(2))
		}
		continuous := sampleMixture(rng, n, []float64{0.3, 0.5, 0.2},
			[]Normal{{Mu: 0, Sigma: 1}, {Mu: 6, Sigma: 2}, {Mu: 15, Sigma: 0.5}})
		for _, k := range []int{1, 2, 3, 5} {
			for kind, data := range map[string][]float64{"integer": integers, "continuous": continuous} {
				got, err := FitGMM(data, GMMConfig{K: k})
				if err != nil {
					t.Fatalf("%s n=%d K=%d: %v", kind, n, k, err)
				}
				if diff := sameBits(got, fitGMMRef(data, GMMConfig{K: k})); diff != "" {
					t.Fatalf("%s n=%d K=%d: %s", kind, n, k, diff)
				}
			}
		}
	}
}

// FuzzFitGMM holds FitGMM to the per-point reference EM on small integer
// samples, signed zero included.
func FuzzFitGMM(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 20, 21, 22}, uint8(3))
	f.Add([]byte{5, 5, 5, 5}, uint8(2))
	f.Add([]byte{0, 128, 0, 128, 7}, uint8(5))
	f.Add([]byte{1}, uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, k uint8) {
		if len(raw) == 0 {
			return
		}
		data := make([]float64, len(raw))
		for j, b := range raw {
			// The top bit is the sign: 128 codes −0.
			data[j] = float64(b & 63)
			if b&128 != 0 {
				data[j] = -data[j]
			}
		}
		cfg := GMMConfig{K: int(k%6) + 1}
		got, err := FitGMM(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameBits(got, fitGMMRef(data, cfg)); diff != "" {
			t.Fatalf("K=%d on %v: %s", cfg.K, data, diff)
		}
	})
}

func TestFitGMMRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		data := []float64{1, 2, 3, bad, 4}
		if m, err := FitGMM(data, GMMConfig{K: 3}); err == nil {
			t.Errorf("FitGMM with sample %v: got %v, want an error", bad, m)
		}
	}
}
