package prob

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// GMM is a one-dimensional Gaussian Mixture Model
//
//	f(φ) = Σ_i π_i · N(φ; µ_i, σ_i)        (Eq. 13)
//
// used by the offline stage to model the prior distribution of GBDs over
// sampled graph pairs (Section V-B).
type GMM struct {
	Weights []float64 // mixing proportions π_i, sum to 1
	Comps   []Normal  // component Gaussians
}

// GMMConfig controls FitGMM. The zero value is usable: it selects the
// paper-style defaults (K = 3 components, 200 iterations, 1e-6 tolerance).
type GMMConfig struct {
	K        int     // number of components (default 3)
	MaxIter  int     // maximum EM iterations ε of Section VI-C (default 200)
	Tol      float64 // stop when mean log-likelihood improves by less (default 1e-6)
	VarFloor float64 // lower bound on component variance (default 1e-4)
}

func (c GMMConfig) withDefaults() GMMConfig {
	if c.K <= 0 {
		c.K = 3
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 200
	}
	if c.Tol <= 0 {
		c.Tol = 1e-6
	}
	if c.VarFloor <= 0 {
		c.VarFloor = 1e-4
	}
	return c
}

// FitGMM learns a GMM from data by expectation-maximisation. Initialisation
// is deterministic (quantile-spread means, global variance), so fits are
// reproducible. K is reduced automatically if the data has fewer distinct
// values than components. Every sample must be finite.
//
// The E step evaluates each distinct sample value once — GBD samples are
// integers, a few dozen values over tens of thousands of points — while
// the log-likelihood and the M-step sums still run over the points in
// data order, so the fit is bit for bit the one a per-point E step gives.
func FitGMM(data []float64, cfg GMMConfig) (*GMM, error) {
	cfg = cfg.withDefaults()
	if len(data) == 0 {
		return nil, errors.New("prob: FitGMM on empty data")
	}
	for j, x := range data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("prob: FitGMM on non-finite sample %v at %d", x, j)
		}
	}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	// values holds the distinct samples ascending (−0 and +0 are one
	// value, whose responsibilities agree bit for bit), at[j] the index
	// of data[j] among them.
	values := slices.Compact(slices.Clone(sorted))
	at := make([]int32, len(data))
	for j, x := range data {
		u, _ := slices.BinarySearch(values, x)
		at[j] = int32(u)
	}
	k := cfg.K
	if k > len(values) {
		k = len(values)
	}

	mean, variance := meanVar(data)
	if variance < cfg.VarFloor {
		variance = cfg.VarFloor
	}

	m := &GMM{
		Weights: make([]float64, k),
		Comps:   make([]Normal, k),
	}
	for i := 0; i < k; i++ {
		// Quantile initialisation: spread means across the data range.
		q := sorted[(2*i+1)*len(sorted)/(2*k)]
		m.Weights[i] = 1 / float64(k)
		m.Comps[i] = Normal{Mu: q, Sigma: math.Sqrt(variance)}
	}
	if k == 1 {
		m.Weights[0] = 1
		m.Comps[0] = Normal{Mu: mean, Sigma: math.Sqrt(variance)}
		return m, nil
	}

	// resp[i][u] is component i's responsibility for values[u], and
	// norms[u] the log-normaliser of values[u].
	resp := make([][]float64, k)
	for i := range resp {
		resp[i] = make([]float64, len(values))
	}
	norms := make([]float64, len(values))
	logs := make([]float64, k)
	prevLL := math.Inf(-1)
	for iter := 0; iter < cfg.MaxIter; iter++ {
		// E step: responsibilities in log space, once per distinct value.
		for u, x := range values {
			for i := range m.Comps {
				logs[i] = math.Log(m.Weights[i]) + m.Comps[i].LogPDF(x)
			}
			norm := LogSumExp(logs...)
			norms[u] = norm
			for i := range m.Comps {
				resp[i][u] = math.Exp(logs[i] - norm)
			}
		}
		var ll float64
		for _, u := range at {
			ll += norms[u]
		}
		// M step.
		for i := 0; i < k; i++ {
			r := resp[i]
			var nk, mu float64
			for j, x := range data {
				nk += r[at[j]]
				mu += r[at[j]] * x
			}
			if nk < 1e-12 {
				// Dead component: re-seed it at the data median.
				m.Weights[i] = 1e-6
				m.Comps[i] = Normal{Mu: sorted[len(sorted)/2], Sigma: math.Sqrt(variance)}
				continue
			}
			mu /= nk
			var v float64
			for j, x := range data {
				d := x - mu
				v += r[at[j]] * d * d
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
	return m, nil
}

func meanVar(data []float64) (mean, variance float64) {
	for _, x := range data {
		mean += x
	}
	mean /= float64(len(data))
	for _, x := range data {
		d := x - mean
		variance += d * d
	}
	variance /= float64(len(data))
	return mean, variance
}

func normalize(w []float64) {
	var s float64
	for _, x := range w {
		s += x
	}
	if s <= 0 {
		for i := range w {
			w[i] = 1 / float64(len(w))
		}
		return
	}
	for i := range w {
		w[i] /= s
	}
}

// PDF evaluates the mixture density f(φ) of Eq. (13).
func (m *GMM) PDF(x float64) float64 {
	var s float64
	for i, c := range m.Comps {
		s += m.Weights[i] * c.PDF(x)
	}
	return s
}

// CDF evaluates the mixture cumulative distribution.
func (m *GMM) CDF(x float64) float64 {
	var s float64
	for i, c := range m.Comps {
		s += m.Weights[i] * c.CDF(x)
	}
	return s
}

// IntervalProb returns ∫_a^b f(φ) dφ.
func (m *GMM) IntervalProb(a, b float64) float64 {
	var s float64
	for i, c := range m.Comps {
		s += m.Weights[i] * c.IntervalProb(a, b)
	}
	return s
}

// DiscreteProb applies the continuity correction of Eq. (14): the prior
// probability of the integer GBD value ϕ is the mixture mass on
// [ϕ−0.5, ϕ+0.5].
func (m *GMM) DiscreteProb(phi float64) float64 {
	return m.IntervalProb(phi-0.5, phi+0.5)
}

// MeanLogLikelihood returns the average log-density of data under m, the
// quantity EM maximises; exposed for tests and the GMM-K ablation bench.
func (m *GMM) MeanLogLikelihood(data []float64) float64 {
	if len(data) == 0 {
		return math.Inf(-1)
	}
	var ll float64
	for _, x := range data {
		logs := make([]float64, len(m.Comps))
		for i, c := range m.Comps {
			logs[i] = math.Log(m.Weights[i]) + c.LogPDF(x)
		}
		ll += LogSumExp(logs...)
	}
	return ll / float64(len(data))
}

// String summarises the mixture for logs and examples.
func (m *GMM) String() string {
	s := "GMM{"
	for i := range m.Comps {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("π=%.3f N(%.2f,%.2f)", m.Weights[i], m.Comps[i].Mu, m.Comps[i].Sigma)
	}
	return s + "}"
}
