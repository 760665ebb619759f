package prob

import (
	"math/rand"
	"testing"
)

func BenchmarkLogChooseSmallK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = LogChoose(5e9, 30)
	}
}

func BenchmarkLogChooseLgammaPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = LogChoose(5e9, 2.5e9)
	}
}

func BenchmarkDigamma(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Digamma(float64(i%1000) + 0.5)
	}
}

func BenchmarkLogHypergeom(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = LogHypergeom(float64(i%10), 1e10, 1e5, 30)
	}
}

func BenchmarkBigChoose(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = BigChoose(5e9, 30, 256)
	}
}

func BenchmarkGMMFit(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := make([]float64, 5000)
	for i := range data {
		if i%3 == 0 {
			data[i] = rng.NormFloat64() * 2
		} else {
			data[i] = 15 + rng.NormFloat64()*3
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitGMM(data, GMMConfig{K: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGMMDiscreteProb(b *testing.B) {
	m := &GMM{
		Weights: []float64{0.3, 0.7},
		Comps:   []Normal{{Mu: 2, Sigma: 1}, {Mu: 14, Sigma: 3}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.DiscreteProb(float64(i % 30))
	}
}

// BenchmarkFitGMM fits the default three-component prior to 20,000
// integer samples shaped like sampled-pair GBDs, the fit BuildPriors runs.
func BenchmarkFitGMM(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := make([]float64, 20000)
	for i := range data {
		data[i] = float64(rng.Intn(8) + rng.Intn(30)*rng.Intn(2))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitGMM(data, GMMConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}
