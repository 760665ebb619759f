package method

import (
	"gsim/internal/db"
	"gsim/internal/graph"
	"gsim/internal/lsap"
	"gsim/internal/seriation"
)

func init() {
	Register(LSAP, Info{
		Traits: Traits{Name: "LSAP", CollectAll: true, Ascending: true},
		New: func() Scorer {
			return &baselineScorer{estimate: func(a, b *graph.Graph) float64 { return lsap.LowerBound(a, b) }, bound: true}
		},
	})
	Register(GreedySort, Info{
		Traits: Traits{Name: "greedysort", Aliases: []string{"greedy"}, CollectAll: true, Ascending: true},
		New: func() Scorer {
			return &baselineScorer{estimate: func(a, b *graph.Graph) float64 { return float64(lsap.GreedyEstimateGED(a, b)) }}
		},
	})
	Register(Seriation, Info{
		Traits: Traits{Name: "seriation", CollectAll: true, Ascending: true},
		New:    func() Scorer { return &seriationScorer{} },
	})
}

// baselineScorer wraps the quadratic-memory competitors — branch-LSAP lower
// bound [11] and Greedy-Sort-GED [12] — behind the shared size guard that
// reproduces the paper's 128 GB memory wall. Both methods build a fresh
// cost matrix per pair, from the stored graph unpacked.
type baselineScorer struct {
	estimate func(a, b *graph.Graph) float64
	// bound marks an exact lower bound, whose threshold comparison needs
	// the ε slack of a float computation (LSAP); estimators compare as
	// integers.
	bound bool
	opt   Options
}

func (b *baselineScorer) Prepare(d *DB, opt Options) error {
	b.opt = opt
	return nil
}

func (b *baselineScorer) Score(q *Query, e *db.Entry) (bool, float64, error) {
	countEntryDecomp()
	if maxInt(q.G.NumVertices(), e.G.NumVertices()) > b.opt.BaselineMaxVertices {
		return false, 0, ErrTooLarge
	}
	est := b.estimate(q.G, e.G.Unpack())
	keep := decideEstimate(est, b.opt, b.bound)
	return keep, est, nil
}

// decideEstimate applies the τ̂ threshold (or CollectAll) to a distance
// estimate, with the float ε slack reserved for exact lower bounds.
func decideEstimate(est float64, opt Options, bound bool) bool {
	tau := float64(opt.Tau)
	if bound {
		tau += 1e-9
	}
	return opt.CollectAll || est <= tau
}

// seriationScorer is the spectral baseline of Robles-Kelly & Hancock [13]:
// each pair seriates both graphs and aligns the two orders.
type seriationScorer struct {
	opt Options
}

func (s *seriationScorer) Prepare(d *DB, opt Options) error {
	s.opt = opt
	return nil
}

func (s *seriationScorer) Score(q *Query, e *db.Entry) (bool, float64, error) {
	countEntryDecomp()
	if maxInt(q.G.NumVertices(), e.G.NumVertices()) > s.opt.BaselineMaxVertices {
		return false, 0, ErrTooLarge
	}
	est := float64(seriation.EstimateGEDInt(q.G, e.G.Unpack()))
	keep := decideEstimate(est, s.opt, false)
	return keep, est, nil
}
