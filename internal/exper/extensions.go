package exper

import (
	"fmt"

	"gsim"
	"gsim/internal/index"
	"gsim/internal/metrics"
)

// Extension experiments: artifacts beyond the paper's figures that evaluate
// the repository's added capabilities. They are addressed like the paper
// artifacts but listed separately.

// ExtensionIDs lists the runnable extension experiments.
func ExtensionIDs() []string { return []string{"xprefilter", "xhybrid"} }

// xPrefilter measures the layered admissible filter: pruning power per
// layer — the tier the prefilter's View.Tier names for each graph of the
// set, the query included — and the end-to-end speedup it buys each
// method.
func (r *runner) xPrefilter() ([]*Table, error) {
	e, err := r.realEnv("grec")
	if err != nil {
		return nil, err
	}
	entries := e.ds.Col.Entries()
	v := index.ViewOf(entries)
	power := &Table{
		ID:     "xprefilter",
		Title:  "Layered pre-filter pruning power on grec (extension)",
		Header: []string{"tau", "total", "size-pruned", "label-pruned", "branch-pruned", "survivors"},
	}
	q := e.ds.Col.Entry(r.queries(e.ds)[0])
	qp := index.PrepareQuery(q.G.Unpack())
	for _, tau := range []int{1, 3, 5, 10} {
		var n [index.TierBranch + 1]int
		for slot, en := range entries {
			n[v.Tier(&qp, q.Branches, en, slot, tau)]++
		}
		power.Rows = append(power.Rows, []string{
			fmt.Sprint(tau), fmt.Sprint(len(entries)), fmt.Sprint(n[index.TierSize]),
			fmt.Sprint(n[index.TierLabel]), fmt.Sprint(n[index.TierBranch]), fmt.Sprint(n[index.TierNone]),
		})
	}

	speed := &Table{
		ID:     "xprefilter",
		Title:  "Query time with and without the pre-filter on grec (extension)",
		Header: []string{"method", "plain", "prefiltered"},
	}
	for _, m := range []gsim.Method{gsim.LSAP, gsim.GreedySort, gsim.GBDA} {
		plain, err := r.timeQueries(e, gsim.SearchOptions{Method: m, Tau: 5, Gamma: 0.9})
		if err != nil {
			return nil, err
		}
		filt, err := r.timeQueries(e, gsim.SearchOptions{Method: m, Tau: 5, Gamma: 0.9, Prefilter: true})
		if err != nil {
			return nil, err
		}
		speed.Rows = append(speed.Rows, []string{m.String(), fmtSeconds(plain), fmtSeconds(filt)})
	}
	return []*Table{power, speed}, nil
}

// xHybrid compares the plain GBDA filter with the hybrid filter-verify
// search on a small-graph data set where A* verification is feasible.
func (r *runner) xHybrid() ([]*Table, error) {
	e, err := r.realEnv("grec")
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "xhybrid",
		Title:  "GBDA filter vs hybrid filter-verify on grec (extension)",
		Header: []string{"tau", "GBDA-P", "GBDA-R", "GBDA-F1", "hybrid-P", "hybrid-R", "hybrid-F1"},
		Notes:  []string{"hybrid verifies candidates up to 24 vertices with threshold-limited A*"},
	}
	for _, tau := range []int{2, 4, 6} {
		var gb, hy metrics.Counts
		for _, qi := range r.queries(e.ds) {
			truth := e.ds.TruthSet(qi, tau)
			q := gsim.CollectionQuery(e.ds.Col, qi)
			rg, err := e.db.Search(q, gsim.SearchOptions{Method: gsim.GBDA, Tau: tau, Gamma: 0.8})
			if err != nil {
				return nil, err
			}
			gb.Add(metrics.Evaluate(rg.Indexes(), truth))
			rh, err := e.db.Search(q, gsim.SearchOptions{
				Method: gsim.Hybrid, Tau: tau, Gamma: 0.8, HybridVerifyMax: 24,
			})
			if err != nil {
				return nil, err
			}
			hy.Add(metrics.Evaluate(rh.Indexes(), truth))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(tau),
			fmtFloat(gb.Precision()), fmtFloat(gb.Recall()), fmtFloat(gb.F1()),
			fmtFloat(hy.Precision()), fmtFloat(hy.Recall()), fmtFloat(hy.F1()),
		})
	}
	return []*Table{t}, nil
}
