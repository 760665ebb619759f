package core

import (
	"fmt"
	"math"
)

// Searcher evaluates the posterior Φ of Algorithm 1, Step 3:
//
//	Φ = Pr[GED ≤ τ̂ | GBD = ϕ] = Σ_{τ=0}^{τ̂} Λ1(τ,ϕ)·Λ3(τ) / Λ2(ϕ)
//
// A graph enters the result set when Φ ≥ γ. The Searcher owns the offline
// artifacts (GBD prior, per-size models with their Jeffreys priors) and is
// safe for concurrent use by parallel scan workers.
type Searcher struct {
	WS  *Workspace
	GBD *GBDPrior

	// FixedV, when positive, replaces v = max(|VQ|,|VG|) in Λ1 and Λ3
	// with a constant — the GBDA-V1 variant of Section VII-D, which uses
	// the average vertex count of an α-graph sample.
	FixedV int
	// Weight, when positive and ≠ 1, switches the observed distance to
	// the VGBD of Eq. (26) rounded to the nearest integer — the GBDA-V2
	// variant. The caller passes the raw intersection size through
	// PosteriorVGBD so the weighting happens here.
	Weight float64
}

// NewSearcher assembles a standard GBDA searcher.
func NewSearcher(ws *Workspace, gbd *GBDPrior) *Searcher {
	return &Searcher{WS: ws, GBD: gbd}
}

// Posterior computes Φ for a pair whose larger vertex count is vmax and
// whose observed GBD is phi, with the threshold τ̂ the workspace was built
// for.
func (s *Searcher) Posterior(vmax, phi int) float64 {
	return s.PosteriorTau(vmax, phi, s.WS.TauMax)
}

// Support returns the largest GBD ϕ a pair within tau edit operations can
// show: Φ is exactly 0 above it. Each operation of the extended-graph model
// relabels one vertex, changing its own branch, or one edge, changing the
// branches of its two endpoints, so at most 2τ branches differ (Λ1(τ, ϕ)
// = 0 for ϕ > 2τ, see Model.lambda1). The posterior table's row width, the
// scorers' bounded merge and size window, and through them the branch
// postings prefix all derive from this one bound.
func Support(tau int) int { return 2 * tau }

// PosteriorTau computes Φ = Σ_{τ=0}^{tau} Λ1(τ,ϕ)·Λ3(τ)/Λ2(ϕ) for a
// query-time threshold tau ≤ the workspace τ̂. The Λ3 normalisation stays
// that of the precomputed table, exactly as in Algorithm 1 where Λ3 is an
// offline artifact independent of the per-query threshold.
func (s *Searcher) PosteriorTau(vmax, phi, tau int) float64 {
	if tau > s.WS.TauMax {
		tau = s.WS.TauMax
	}
	if phi > Support(tau) {
		// Λ1(τ,ϕ) = 0 for every τ ≤ tau: the pair cannot be within the
		// threshold, skip all model work (Section VI-B short circuit).
		return 0
	}
	v := vmax
	if s.FixedV > 0 {
		v = s.FixedV
	}
	m := s.WS.Model(v)
	vals := m.Lambda1All(phi)
	prior := m.GEDPrior()
	l2 := s.GBD.Prob(float64(phi))
	var sum float64
	for t := 0; t <= tau; t++ {
		sum += vals[t] * prior[t]
	}
	return sum / l2
}

// PosteriorVGBD computes Φ for the GBDA-V2 variant: the observation is
// VGBD = vmax − w·|B∩B| (Eq. 26), rounded to the nearest integer.
func (s *Searcher) PosteriorVGBD(vmax, intersect int) float64 {
	return s.PosteriorVGBDTau(vmax, intersect, s.WS.TauMax)
}

// PosteriorVGBDTau is PosteriorVGBD with a query-time threshold.
func (s *Searcher) PosteriorVGBDTau(vmax, intersect, tau int) float64 {
	return s.PosteriorTau(vmax, RoundVGBD(vmax, intersect, s.Weight), tau)
}

// RoundVGBD is the integer observation GBDA-V2 enters the model with:
// VGBD = vmax − w·|B∩B| (Eq. 26) rounded to the nearest integer and
// clamped at 0; a non-positive w means the unweighted distance. The direct
// path, the posterior table and the scorer's merge bound all round here,
// so they agree bit for bit.
func RoundVGBD(vmax, intersect int, w float64) int {
	if w <= 0 {
		w = 1
	}
	phi := int(math.Round(float64(vmax) - w*float64(intersect)))
	if phi < 0 {
		phi = 0
	}
	return phi
}

// String describes the searcher configuration for experiment logs.
func (s *Searcher) String() string {
	switch {
	case s.FixedV > 0:
		return fmt.Sprintf("GBDA-V1(v=%d)", s.FixedV)
	case s.Weight > 0 && s.Weight != 1:
		return fmt.Sprintf("GBDA-V2(w=%g)", s.Weight)
	default:
		return "GBDA"
	}
}
