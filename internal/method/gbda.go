package method

import (
	"fmt"
	"math"

	"gsim/internal/branch"
	"gsim/internal/core"
	"gsim/internal/db"
)

func init() {
	Register(GBDA, Info{
		Traits: Traits{Name: "GBDA", NeedsPriors: true, CollectAll: true},
		New:    func() Scorer { return &gbdaScorer{variant: GBDA} },
	})
	Register(GBDAV1, Info{
		Traits: Traits{Name: "GBDA-V1", Aliases: []string{"v1"}, NeedsPriors: true, CollectAll: true},
		New:    func() Scorer { return &gbdaScorer{variant: GBDAV1} },
	})
	Register(GBDAV2, Info{
		Traits: Traits{Name: "GBDA-V2", Aliases: []string{"v2"}, NeedsPriors: true, CollectAll: true},
		New:    func() Scorer { return &gbdaScorer{variant: GBDAV2} },
	})
}

// gbdaScorer is the paper's Algorithm 1 — the probabilistic GED-from-GBD
// posterior thresholded at γ — and its V1 (fixed |V'1|) and V2 (weighted
// VGBD observation) variants. Scoring is allocation- and lock-free in
// steady state: the posterior comes from a precomputed (v, ϕ) table and
// the branch distance from an integer merge of interned multisets that
// stops once the pair is past the table's 2τ̂ support (see score).
type gbdaScorer struct {
	variant ID
	table   *core.PosteriorTable
	opt     Options
}

// preparePosterior validates the offline artifacts and builds the shared
// posterior searcher; the GBDA family and Hybrid both start here.
func preparePosterior(d *DB, opt Options) (*core.Searcher, error) {
	if !d.HasPriors() {
		return nil, ErrNoPriors
	}
	if opt.Tau > d.TauMax {
		return nil, fmt.Errorf("%w: tau %d exceeds prior ceiling %d; rebuild priors with a larger TauMax", ErrBadOptions, opt.Tau, d.TauMax)
	}
	return &core.Searcher{WS: d.WS, GBD: d.GBDPrior}, nil
}

func (g *gbdaScorer) Prepare(d *DB, opt Options) error {
	s, err := preparePosterior(d, opt)
	if err != nil {
		return err
	}
	switch g.variant {
	case GBDAV1:
		s.FixedV = d.AvgActiveSize(opt.V1Sample, 1)
	case GBDAV2:
		if opt.V2Weight <= 0 {
			opt.V2Weight = 1 // what core.RoundVGBD would read it as
		}
		s.Weight = opt.V2Weight
	}
	g.table, g.opt = d.WS.Table(s, opt.Tau, d.Sizes), opt
	return nil
}

func (g *gbdaScorer) Score(q *Query, e *db.Entry) (bool, float64, error) {
	countEntryDecomp()
	keep, post := g.score(q, e)
	return keep, post, nil
}

// score is Algorithm 1 for one pair. Φ is exactly 0 whenever the
// observed distance exceeds core.Support(τ̂) = 2τ̂ (the Section VI-B short
// circuit the table applies before any row access), so the merge is asked
// only for the intersections that can reach a table row and an aborted
// merge is that same Φ = 0 — a scored pair, not a prune. Sizes are the
// branch multiset lengths (one branch per vertex), so a discarded entry
// never touches e.G.
func (g *gbdaScorer) score(q *Query, e *db.Entry) (bool, float64) {
	post := 0.0
	lq, le := len(q.Branches), e.Branches.Len()
	if inter, ok := branch.IntersectAtLeastIDs(q.Branches, e.Branches, g.need(maxInt(lq, le))); ok {
		post = g.posterior(lq, le, inter)
	}
	return g.keep(post), post
}

// need is the smallest |B∩B| that keeps a pair of extended size vmax
// within the 2τ̂ support of Φ under this variant's observation.
func (g *gbdaScorer) need(vmax int) int {
	if g.variant == GBDAV2 {
		return needVGBD(vmax, g.opt.Tau, g.opt.V2Weight)
	}
	return needGBD(vmax, g.opt.Tau)
}

// needGBD returns the smallest |B∩B| that keeps a pair of extended size
// vmax within the 2τ̂ support of Φ: GBD = vmax − |B∩B| (Definition 4).
func needGBD(vmax, tau int) int { return vmax - core.Support(tau) }

// needVGBD is needGBD for the GBDA-V2 observation: the smallest |B∩B|
// whose rounded VGBD (Eq. 26) is ≤ 2τ̂, or vmax+1 — more than any pair of
// that size can share — when none is. It solves vmax − w·n < 2τ̂ + ½ for n
// and settles the last unit with the table's own rounding, which is
// monotone in n, so the bound is exact at any weight. The estimate is
// clamped to [0, vmax+1] while still a float — w is client-supplied and
// the quotient overflows int for a tiny one (NaN compares false and
// lands on 0) — which also bounds both loops by vmax+1 steps.
func needVGBD(vmax, tau int, w float64) int {
	sup, n := core.Support(tau), 0
	if x := (float64(vmax) - float64(sup) - 0.5) / w; x >= float64(vmax) {
		n = vmax + 1
	} else if x > 0 {
		n = int(x) + 1
	}
	for n > 0 && core.RoundVGBD(vmax, n-1, w) <= sup {
		n--
	}
	for n <= vmax && core.RoundVGBD(vmax, n, w) > sup {
		n++
	}
	return n
}

// SizeWindow returns the entry sizes score can give a non-zero posterior:
// outside it the intersection score asks for exceeds the smaller side, so
// IntersectAtLeastIDs fails on the lengths alone.
func (g *gbdaScorer) SizeWindow(q *Query) (lo, hi int) {
	if g.variant == GBDAV2 {
		return windowVGBD(len(q.Branches), g.opt.Tau, g.opt.V2Weight)
	}
	return windowGBD(len(q.Branches), g.opt.Tau)
}

// windowGBD solves needGBD(max(m, s), tau) ≤ min(m, s) for the entry size
// s: a smaller entry must hold the m − 2τ̂ branches the query needs
// matched, a larger one may exceed the query by at most 2τ̂.
func windowGBD(m, tau int) (lo, hi int) {
	sup := core.Support(tau)
	return m - sup, m + sup
}

// windowVGBD is windowGBD under needVGBD. Below the query size the pair's
// vmax is m, so the bound is needVGBD(m) itself (m+1, and the window
// empty, when even a full match rounds past 2τ̂). Above it the entry can
// match at most the query's m branches, so hi is the largest s whose
// RoundVGBD(s, m) is still ≤ 2τ̂ — solved as needVGBD solves its bound:
// a float estimate of s − w·m < 2τ̂ + ½, clamped while still a float
// because w is client-supplied, then settled with the table's own
// rounding, which is monotone in s.
func windowVGBD(m, tau int, w float64) (lo, hi int) {
	lo = needVGBD(m, tau, w)
	if lo > m {
		return lo, m - 1
	}
	const ceiling = math.MaxInt32 // no stored graph has more vertices
	hi = ceiling
	sup := core.Support(tau)
	if x := float64(sup) + 0.5 + w*float64(m); x < ceiling {
		hi = maxInt(int(x), m)
		for hi > m && core.RoundVGBD(hi, m, w) > sup {
			hi--
		}
		for hi < ceiling && core.RoundVGBD(hi+1, m, w) <= sup {
			hi++
		}
	}
	return lo, hi
}

// posterior applies the model to an exact intersection size — the only
// quantity both GBD (Definition 4) and VGBD (Eq. 26) consume — of a query
// of lq branches and an entry of le.
func (g *gbdaScorer) posterior(lq, le, inter int) float64 {
	if g.variant == GBDAV2 {
		return g.table.PosteriorVGBD(maxInt(lq, le), inter, g.opt.V2Weight)
	}
	return g.table.Posterior(maxInt(lq, le), branch.GBDOf(lq, le, inter))
}

// keep is Step 4 of Algorithm 1, or everything under CollectAll.
func (g *gbdaScorer) keep(post float64) bool {
	return g.opt.CollectAll || post >= g.opt.Gamma
}
