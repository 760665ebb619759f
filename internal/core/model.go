// Package core implements the paper's primary contribution: the
// probabilistic model relating Graph Branch Distance to Graph Edit Distance
// (Section V, Appendices C–H), the prior distributions of the offline stage
// (GMM over GBDs, Jeffreys prior over GEDs), and the GBDA posterior of
// Algorithm 1 together with its V1/V2 variants (Section VII-D).
//
// All quantities are derived for the extended graphs of Section IV, which —
// by Theorems 1 and 2 — never need to be materialised: the model only
// depends on v = |V'1| = max(|V1|, |V2|), the alphabet sizes |LV| and |LE|,
// the similarity threshold τ̂, and the observed GBD value ϕ.
package core

import (
	"math"
	"math/big"
	"sync"

	"gsim/internal/prob"
)

// Params are the dataset-level constants of the model.
type Params struct {
	// LV and LE are the sizes of the vertex- and edge-label alphabets
	// (Lemma 3 / Eq. 33).
	LV, LE int
	// TauMax is the similarity threshold τ̂ the model is dimensioned for.
	TauMax int
}

// Model evaluates the conditional distribution Pr[GBD = ϕ | GED = τ] of
// Eq. (8) and its τ-derivative for one extended-graph size v. It caches the
// Ω2 table (which depends only on y = τ−x, Eq. 20–23) and the inner
// Σ_r Ω3·Ω4 tables per ϕ, so that Λ1 for all τ ≤ τ̂ costs O(τ̂³) total.
//
// A Model is safe for concurrent use after construction.
type Model struct {
	V int // extended size |V'1|
	Params

	c2     float64 // C(v,2): edges of the complete extended graph
	logD   float64 // ln D, D = |LV|·C(v+|LE|−1, |LE|) branch types (Eq. 33)
	logDm1 float64 // ln(D−1)
	dIsOne bool    // degenerate single-branch-type universe

	omega2  [][]float64 // [y][m] = Pr[Z=m | Y=y] (Lemma 2)
	omega2d [][]float64 // [y][m] = d/dy Pr[Z=m | Y=y]
	// wildDeriv records that the inclusion-exclusion terms of Lemma 2
	// dwarf their cancelled sum by more than ~1e12. Beyond that point the
	// continuous-y extension of Ω2 (whose identity holds only at integer
	// y) oscillates wildly between integers and its analytic derivative
	// stops describing the discrete model; the Jeffreys score then falls
	// back to discrete log-differences. See DESIGN.md §4.
	wildDeriv bool

	mu         sync.Mutex
	innerCache map[int][][]float64 // ϕ → [x][m] = Σ_r Ω3(r,ϕ)·Ω4(x,r,m)
	prior      []float64           // cached Jeffreys prior (Λ3), lazily built
}

// NewModel builds the model for extended size v. It precomputes the Ω2
// value and derivative tables for y ∈ [0, τ̂].
func NewModel(v int, p Params) *Model {
	if p.TauMax <= 0 {
		p.TauMax = 10
	}
	if p.LV < 1 {
		p.LV = 1
	}
	if p.LE < 0 {
		p.LE = 0
	}
	m := &Model{
		V:          v,
		Params:     p,
		c2:         prob.Choose2(float64(v)),
		innerCache: make(map[int][][]float64),
	}
	// D = |LV| · C(v+|LE|−1, |LE|): ways to label one branch (Lemma 3).
	m.logD = math.Log(float64(p.LV)) + prob.LogChoose(float64(v+p.LE-1), float64(p.LE))
	if m.logD <= 0 {
		m.dIsOne = true
	} else {
		// ln(D−1) = ln D + ln(1 − 1/D), exact even for astronomically
		// large D where D−1 is not representable.
		m.logDm1 = m.logD + math.Log1p(-math.Exp(-m.logD))
	}
	m.buildOmega2()
	return m
}

func (m *Model) mMax() int {
	mm := 2 * m.TauMax
	if m.V < mm {
		mm = m.V
	}
	return mm
}

// buildOmega2 tabulates Ω2(m, y) = Pr[Z = m | Y = y] (Lemma 2, Eq. 29) and
// its y-derivative for every y ∈ [0, τ̂]. The inclusion–exclusion sum
// alternates sign with terms that dwarf the result, so the (small, offline)
// table is built with 256-bit arithmetic; see prob.BigChoose.
func (m *Model) buildOmega2() {
	const prec = 256
	tm := m.TauMax
	mMax := m.mMax()
	m.omega2 = make([][]float64, tm+1)
	m.omega2d = make([][]float64, tm+1)
	term := new(big.Float).SetPrec(prec)
	fac := new(big.Float).SetPrec(prec)
	sum := new(big.Float).SetPrec(prec)
	dsum := new(big.Float).SetPrec(prec)
	for y := 0; y <= tm; y++ {
		vals := make([]float64, mMax+1)
		ders := make([]float64, mMax+1)
		den := prob.BigChoose(m.c2, y, prec)
		if den.Sign() > 0 {
			dDen := prob.DLogChooseDK(m.c2, float64(y))
			for mm := 0; mm <= mMax; mm++ {
				if mm > 2*y {
					continue // y edges cover at most 2y vertices: exact zero
				}
				cvm := prob.BigChoose(float64(m.V), mm, prec)
				sum.SetInt64(0)
				dsum.SetInt64(0)
				for t := 0; t <= mm; t++ {
					ct2 := prob.Choose2(float64(t))
					term.Mul(cvm, prob.BigChoose(float64(mm), t, prec))
					term.Mul(term, prob.BigChoose(ct2, y, prec))
					term.Quo(term, den)
					if term.Sign() == 0 {
						continue
					}
					if term.MantExp(nil) > 40 { // |term| > ~1e12
						m.wildDeriv = true
					}
					if (mm-t)%2 == 1 {
						term.Neg(term)
					}
					sum.Add(sum, term)
					// d/dy of the term: term · (ψ-difference of its two
					// y-dependent binomials). See DESIGN.md for the
					// derivation replacing the paper's Eq. 37–41.
					dfac := prob.DLogChooseDK(ct2, float64(y)) - dDen
					if dfac != 0 {
						fac.SetFloat64(dfac)
						term.Mul(term, fac)
						dsum.Add(dsum, term)
					}
				}
				if v, _ := sum.Float64(); v > 0 {
					vals[mm] = v
				}
				ders[mm], _ = dsum.Float64()
			}
		}
		m.omega2[y] = vals
		m.omega2d[y] = ders
	}
}

// Omega1 returns Ω1(x, τ) = H(x; v+C(v,2), v, τ) (Lemma 1, Eq. 28): the
// probability that a uniformly random τ-subset of the extended graph's
// relabelling slots touches exactly x vertices.
func (m *Model) Omega1(x, tau int) float64 {
	return math.Exp(prob.LogHypergeom(float64(x), float64(m.V)+m.c2, float64(m.V), float64(tau)))
}

// dLogOmega1 returns ∂/∂τ ln Ω1(x, τ) under the continuous binomial
// extension (only the two τ-dependent binomials contribute).
func (m *Model) dLogOmega1(x, tau float64) float64 {
	return prob.DLogChooseDK(m.c2, tau-x) - prob.DLogChooseDK(float64(m.V)+m.c2, tau)
}

// Omega2 returns Pr[Z = m | Y = y] from the precomputed table.
func (m *Model) Omega2(mm, y int) float64 {
	if y < 0 || y > m.TauMax || mm < 0 || mm >= len(m.omega2[y]) {
		return 0
	}
	return m.omega2[y][mm]
}

// Omega3 returns Ω3(r, ϕ) = C(r, r−ϕ)·(D−1)^ϕ / D^r (Lemma 3, Eq. 30):
// the probability that exactly ϕ of r relabelled branches leave the branch
// multiset changed.
func (m *Model) Omega3(r, phi int) float64 {
	if phi < 0 || phi > r {
		return 0
	}
	if m.dIsOne {
		if phi == 0 {
			return 1
		}
		return 0
	}
	lg := prob.LogChoose(float64(r), float64(phi)) + float64(phi)*m.logDm1 - float64(r)*m.logD
	return math.Exp(lg)
}

// Omega4 returns Ω4(x, r, mm) = H(x+mm−r; v, mm, x) (Lemma 4, Eq. 31): the
// probability that the x relabelled vertices overlap the mm edge-covered
// vertices in exactly x+mm−r positions.
func (m *Model) Omega4(x, r, mm int) float64 {
	return math.Exp(prob.LogHypergeom(float64(x+mm-r), float64(m.V), float64(mm), float64(x)))
}

// inner returns (building and caching on first use) the table
// inner[x][m] = Σ_r Ω3(r, ϕ)·Ω4(x, r, m), the ϕ-dependent factor of Eq. (8)
// that is independent of τ — the second reuse of Section VI-B.
func (m *Model) inner(phi int) [][]float64 {
	m.mu.Lock()
	if t, ok := m.innerCache[phi]; ok {
		m.mu.Unlock()
		return t
	}
	m.mu.Unlock()

	tm := m.TauMax
	mMax := m.mMax()
	table := make([][]float64, tm+1)
	for x := 0; x <= tm; x++ {
		row := make([]float64, mMax+1)
		for mm := 0; mm <= mMax; mm++ {
			lo, hi := x, x+mm
			if mm > lo {
				lo = mm
			}
			if m.V < hi {
				hi = m.V
			}
			var s float64
			for r := lo; r <= hi; r++ {
				s += m.Omega3(r, phi) * m.Omega4(x, r, mm)
			}
			row[mm] = s
		}
		table[x] = row
	}
	m.mu.Lock()
	m.innerCache[phi] = table
	m.mu.Unlock()
	return table
}

// ReleaseInner retires the ϕ-cache. Once a posterior table has folded the
// model's answers into its rows the cached inner tables are dead weight —
// every distinct ϕ otherwise pins an O(τ̂·m) slice for the model's
// lifetime — so table construction calls this after building each row.
// Later Lambda1 calls simply rebuild (and re-cache) what they need.
func (m *Model) ReleaseInner() {
	m.mu.Lock()
	m.innerCache = make(map[int][][]float64)
	m.mu.Unlock()
}

// Lambda1 returns Λ1(τ, ϕ) = Pr[GBD = ϕ | GED = τ] (Eq. 8 / 27).
func (m *Model) Lambda1(tau, phi int) float64 {
	vals := m.Lambda1All(phi)
	if tau < 0 || tau >= len(vals) {
		return 0
	}
	return vals[tau]
}

// Lambda1All returns Λ1(τ, ϕ) for every τ ∈ [0, τ̂] in O(τ̂³) using the
// cached Ω2 and inner tables (the paper's Eq. 20–23 redundancy elimination).
func (m *Model) Lambda1All(phi int) []float64 {
	vals, _ := m.lambda1(phi, false)
	return vals
}

// Lambda1Deriv additionally returns ∂Λ1/∂τ for every τ, the ingredient of
// the score function Z (Eq. 17/35) behind the Jeffreys prior.
func (m *Model) Lambda1Deriv(phi int) (vals, derivs []float64) {
	return m.lambda1(phi, true)
}

func (m *Model) lambda1(phi int, wantDeriv bool) (vals, derivs []float64) {
	tm := m.TauMax
	vals = make([]float64, tm+1)
	derivs = make([]float64, tm+1)
	if phi < 0 || phi > Support(tm) || phi > m.V {
		// One operation relabels one vertex or one edge: x vertex and
		// y = τ − x edge relabels touch R ≤ x + 2y ≤ 2τ branches, and
		// GBD = ϕ ≤ R. Such a ϕ is unreachable within τ̂ operations and
		// Λ1 vanishes everywhere (Ω3(r, ϕ) = 0 for every r < ϕ makes the
		// full sum exactly 0 too; the guard only skips building it).
		return vals, derivs
	}
	in := m.inner(phi)
	mMax := m.mMax()
	for tau := 0; tau <= tm; tau++ {
		var val, der float64
		for x := 0; x <= tau; x++ {
			y := tau - x
			o1 := m.Omega1(x, tau)
			if o1 == 0 {
				continue
			}
			limit := 2 * y
			if limit > mMax {
				limit = mMax
			}
			var s2, s2d float64
			w2 := m.omega2[y]
			inx := in[x]
			for mm := 0; mm <= limit; mm++ {
				s2 += w2[mm] * inx[mm]
			}
			val += o1 * s2
			if wantDeriv {
				w2d := m.omega2d[y]
				for mm := 0; mm <= limit; mm++ {
					s2d += w2d[mm] * inx[mm]
				}
				der += o1*m.dLogOmega1(float64(x), float64(tau))*s2 + o1*s2d
			}
		}
		vals[tau] = val
		derivs[tau] = der
	}
	return vals, derivs
}

// Lambda1Naive recomputes Λ1(τ, ϕ) from the raw quadruple sum of Eq. (8)
// with no table reuse. It exists for the reuse ablation benchmark and for
// cross-checking the fast path in tests.
func (m *Model) Lambda1Naive(tau, phi int) float64 {
	var val float64
	for x := 0; x <= tau; x++ {
		y := tau - x
		o1 := m.Omega1(x, tau)
		if o1 == 0 {
			continue
		}
		var s2 float64
		for mm := 0; mm <= 2*y && mm <= m.V; mm++ {
			o2 := m.Omega2(mm, y)
			if o2 == 0 {
				continue
			}
			lo, hi := x, x+mm
			if mm > lo {
				lo = mm
			}
			if m.V < hi {
				hi = m.V
			}
			var s3 float64
			for r := lo; r <= hi; r++ {
				s3 += m.Omega3(r, phi) * m.Omega4(x, r, mm)
			}
			s2 += o2 * s3
		}
		val += o1 * s2
	}
	return val
}
