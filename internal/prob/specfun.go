// Package prob supplies the probability substrate the GBDA model is built
// on: log-space combinatorics (factorials, binomials, hypergeometric pmfs),
// the digamma function and harmonic numbers used by the Jeffreys-prior
// derivatives (Appendix C of the paper), signed log-sum-exp accumulation for
// the alternating inclusion-exclusion sums of Lemma 2, the normal
// distribution, and a one-dimensional Gaussian Mixture Model fitted by EM
// (Section V-B).
//
// Everything here works on float64 in log space so the model stays stable
// for graphs with up to hundreds of thousands of vertices, where raw
// binomial coefficients such as C(v(v-1)/2, τ) overflow immediately.
package prob

import "math"

// LogFactorial returns ln(n!) using the log-gamma function.
// It returns -Inf for negative n (an impossible count).
func LogFactorial(n float64) float64 {
	if n < 0 {
		return math.Inf(-1)
	}
	lg, _ := math.Lgamma(n + 1)
	return lg
}

// LogChoose returns ln C(n, k) for real n ≥ 0 and integer-valued k. Out of
// range (k < 0 or k > n) yields -Inf, the log of an impossible combination;
// callers treat that as probability zero rather than an error.
//
// For small k (or small n−k) the value is accumulated term by term instead
// of via Lgamma differences: with n ~ 5e9 the three Lgamma values are ~1e11
// and cancel to ~1e2, losing nine digits of absolute precision — enough to
// visibly denormalise the model's distributions at 100K vertices.
func LogChoose(n, k float64) float64 {
	if k < 0 || k > n || n < 0 {
		return math.Inf(-1)
	}
	kk := k
	if n-k < kk {
		kk = n - k
	}
	if kk <= 512 && kk == math.Trunc(kk) {
		var s float64
		for i := 0.0; i < kk; i++ {
			s += math.Log(n-i) - math.Log(i+1)
		}
		return s
	}
	return LogFactorial(n) - LogFactorial(k) - LogFactorial(n-k)
}

// Choose2 returns C(n,2) = n(n-1)/2 as a float64, the edge count of a
// complete graph on n vertices (the |E'1| of Lemma 1).
func Choose2(n float64) float64 {
	if n < 2 {
		return 0
	}
	return n * (n - 1) / 2
}

// LogHypergeom returns the log pmf of the hypergeometric distribution
// H(x; M, K, N) of Eq. (32): the probability of drawing exactly x marked
// items when N items are drawn without replacement from a population of M
// containing K marked ones.
func LogHypergeom(x, m, k, n float64) float64 {
	return LogChoose(k, x) + LogChoose(m-k, n-x) - LogChoose(m, n)
}

// Digamma returns ψ(x), the logarithmic derivative of the gamma function,
// for x > 0. Implementation: upward recurrence ψ(x) = ψ(x+1) − 1/x to push
// the argument above 6, then the standard asymptotic series. Absolute error
// is below 1e-12 across the model's operating range.
func Digamma(x float64) float64 {
	if math.IsNaN(x) || x <= 0 && x == math.Trunc(x) {
		return math.NaN() // poles at 0, -1, -2, ...
	}
	var result float64
	if x < 0 {
		// Reflection: ψ(1-x) - ψ(x) = π·cot(πx).
		return Digamma(1-x) - math.Pi/math.Tan(math.Pi*x)
	}
	for x < 6 {
		result -= 1 / x
		x++
	}
	// Asymptotic expansion ψ(x) ~ ln x − 1/2x − Σ B_{2n}/(2n x^{2n}).
	inv := 1 / x
	inv2 := inv * inv
	result += math.Log(x) - 0.5*inv
	result -= inv2 * (1.0/12 - inv2*(1.0/120-inv2*(1.0/252-inv2*(1.0/240-inv2*1.0/132))))
	return result
}

// DLogChooseDK returns ∂/∂k ln C(n, k) = ψ(n−k+1) − ψ(k+1), the derivative
// the Jeffreys-prior score function Z is assembled from (cf. Eq. 36–41; see
// DESIGN.md for the typo-corrected derivation).
func DLogChooseDK(n, k float64) float64 {
	if k < 0 || k > n {
		return 0
	}
	return Digamma(n-k+1) - Digamma(k+1)
}

// LogSumExp returns ln Σ exp(xs[i]) computed stably. Empty input and
// all-(-Inf) input return -Inf.
func LogSumExp(xs ...float64) float64 {
	maxv := math.Inf(-1)
	for _, x := range xs {
		if x > maxv {
			maxv = x
		}
	}
	if math.IsInf(maxv, -1) {
		return maxv
	}
	var sum float64
	for _, x := range xs {
		sum += math.Exp(x - maxv)
	}
	return maxv + math.Log(sum)
}

// SignedLogAcc accumulates Σ sign_i·exp(logmag_i) for series whose terms are
// known only in (sign, log-magnitude) form, such as the inclusion–exclusion
// sum of Lemma 2. Terms are buffered and combined once with max-scaling to
// bound cancellation error.
type SignedLogAcc struct {
	logs  []float64
	signs []float64
}

// Add records one term sign·exp(logmag). Terms with logmag = -Inf are
// dropped.
func (a *SignedLogAcc) Add(sign, logmag float64) {
	if math.IsInf(logmag, -1) {
		return
	}
	a.logs = append(a.logs, logmag)
	a.signs = append(a.signs, sign)
}

// Result returns (log|S|, sign(S)) for the accumulated sum S. A sum that
// cancels to ≤ 0 returns (-Inf, 0) — for the model's use (probabilities)
// that means "numerically zero".
func (a *SignedLogAcc) Result() (logmag, sign float64) {
	if len(a.logs) == 0 {
		return math.Inf(-1), 0
	}
	maxv := math.Inf(-1)
	for _, l := range a.logs {
		if l > maxv {
			maxv = l
		}
	}
	var sum float64
	for i, l := range a.logs {
		sum += a.signs[i] * math.Exp(l-maxv)
	}
	switch {
	case sum > 0:
		return maxv + math.Log(sum), 1
	case sum < 0:
		return maxv + math.Log(-sum), -1
	default:
		return math.Inf(-1), 0
	}
}

// Reset clears the accumulator for reuse without reallocating.
func (a *SignedLogAcc) Reset() {
	a.logs = a.logs[:0]
	a.signs = a.signs[:0]
}
