package method

import (
	"fmt"

	"gsim/internal/branch"
	"gsim/internal/db"
	"gsim/internal/ged"
)

func init() {
	Register(Exact, Info{
		Traits: Traits{Name: "exact", Ascending: true},
		New:    func() Scorer { return &exactScorer{} },
	})
	Register(Hybrid, Info{
		Traits: Traits{Name: "hybrid", NeedsPriors: true},
		New:    func() Scorer { return &hybridScorer{} },
	})
}

// exactScorer verifies every pair with A* GED — NP-hard, tiny graphs only.
type exactScorer struct {
	opt Options
}

func (x *exactScorer) Prepare(d *DB, opt Options) error {
	x.opt = opt
	return nil
}

func (x *exactScorer) Score(q *Query, e *db.Entry) (bool, float64, error) {
	countEntryDecomp()
	r, err := ged.Compute(q.G, e.G.Unpack(), ged.Options{MaxExpansions: x.opt.ExactBudget, Limit: x.opt.Tau})
	if err == ged.ErrOverLimit {
		return false, float64(r.LowerBound), nil // proved GED > τ̂
	}
	if err != nil {
		return false, 0, fmt.Errorf("exact GED on %q: %w", e.G.Name, err)
	}
	return r.Distance <= x.opt.Tau, float64(r.Distance), nil
}

// hybridScorer runs the GBDA filter and then verifies small candidates with
// exact A*, the filter-verify extension of Section VIII-A. Its filter
// stage shares the GBDA table hot path: posterior by lookup, branch
// distance by bounded integer merge.
type hybridScorer struct {
	table *lazyTable
	opt   Options
}

func (h *hybridScorer) Prepare(d *DB, opt Options) error {
	s, err := preparePosterior(d, opt)
	if err != nil {
		return err
	}
	h.table, h.opt = newLazyTable(d, s, opt), opt
	return nil
}

// SizeWindow is the GBDA filter's: outside it the posterior is 0 and the
// pair is dropped before any verification.
func (h *hybridScorer) SizeWindow(q *Query) (lo, hi int) {
	return windowGBD(len(q.Branches), h.opt.Tau)
}

func (h *hybridScorer) Score(q *Query, e *db.Entry) (bool, float64, error) {
	countEntryDecomp()
	// The filter is the GBDA merge path (see gbdaScorer.score): an
	// intersection too small to reach the table's 2τ̂ support is Φ = 0.
	t := h.table.get()
	lq, le := len(q.Branches), e.Branches.Len()
	vmax := maxInt(lq, le)
	post := 0.0
	if inter, ok := branch.IntersectAtLeastIDs(q.Branches, e.Branches, needGBD(vmax, t.Tau())); ok {
		post = t.Posterior(vmax, branch.GBDOf(lq, le, inter))
	}
	if post < h.opt.Gamma {
		return false, post, nil
	}
	if vmax > h.opt.HybridVerifyMax {
		return true, post, nil // too large to verify: trust the filter
	}
	r, err := ged.Compute(q.G, e.G.Unpack(), ged.Options{MaxExpansions: h.opt.ExactBudget, Limit: h.opt.Tau})
	if err == ged.ErrOverLimit {
		return false, float64(r.LowerBound), nil // false positive removed
	}
	if err != nil {
		return true, post, nil // budget blown: keep the filter decision
	}
	return r.Distance <= h.opt.Tau, float64(r.Distance), nil
}
