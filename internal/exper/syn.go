package exper

import (
	"fmt"

	"gsim"
	"gsim/internal/metrics"
)

// figTimeSyn measures query time vs graph size on a synthetic family
// (Fig. 8 for Syn-1, Fig. 9 for Syn-2): the three baselines plus GBDA at
// τ̂ ∈ {10, 20, 30}.
//
// Scale note: the paper's competitors exhaust 128 GB beyond 20K vertices;
// here the exact-LSAP baseline is additionally time-capped (O(n³) per pair)
// via Options.LSAPSynCap and greedy/seriation via Options.BaselineSynCap.
// Capped cells print "OOM", mirroring how the paper reports the failure.
func (r *runner) figTimeSyn(id, profile string) ([]*Table, error) {
	env, err := r.synEnv(profile)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("Query time vs graph size on %s (cf. Fig. %s)", profile, id[3:]),
		Header: []string{"size", "LSAP", "greedysort", "seriation", "GBDA(t=10)", "GBDA(t=20)", "GBDA(t=30)"},
		Notes: []string{
			"seconds per query over an 8-graph database slice (times scale linearly in |D|)",
			"OOM marks sizes beyond a baseline's resource cap",
			"paper shape: baselines grow superlinearly and die at 20K; GBDA stays near-flat through 100K",
		},
	}
	for _, size := range sortedSizes(env.subsets) {
		e := env.subsets[size]
		tview, err := e.timingView()
		if err != nil {
			return nil, err
		}
		// Warm the per-size model and Jeffreys prior before timing: they
		// are offline artifacts (Table V), not per-query cost.
		if _, err := tview.Search(gsim.CollectionQuery(e.ds.Col, r.queries(e.ds)[0]),
			gsim.SearchOptions{Method: gsim.GBDA, Tau: 30, Gamma: 0.8}); err != nil {
			return nil, err
		}
		timingEnv := &realEnv{ds: e.ds, db: tview}
		row := []string{fmt.Sprint(size)}
		cells := []struct {
			opt gsim.SearchOptions
			cap int
		}{
			{gsim.SearchOptions{Method: gsim.LSAP, Tau: 10}, r.opt.LSAPSynCap},
			{gsim.SearchOptions{Method: gsim.GreedySort, Tau: 10}, r.opt.BaselineSynCap},
			{gsim.SearchOptions{Method: gsim.Seriation, Tau: 10}, r.opt.BaselineSynCap},
			{gsim.SearchOptions{Method: gsim.GBDA, Tau: 10, Gamma: 0.8}, 0},
			{gsim.SearchOptions{Method: gsim.GBDA, Tau: 20, Gamma: 0.8}, 0},
			{gsim.SearchOptions{Method: gsim.GBDA, Tau: 30, Gamma: 0.8}, 0},
		}
		for _, c := range cells {
			if c.cap > 0 && size > c.cap {
				row = append(row, "OOM")
				continue
			}
			avg, err := r.timeQueries(timingEnv, c.opt)
			if err != nil {
				return nil, err
			}
			row = append(row, fmtSeconds(avg))
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}, nil
}

// figEffectSyn renders precision/recall/F1 vs graph size on Syn-1 for one
// τ̂ (Figs. 31–42): LSAP, greedysort, seriation, GBDA at γ ∈ {0.6,0.7,0.8}.
func (r *runner) figEffectSyn(id, measure string, tau int) ([]*Table, error) {
	env, err := r.synEnv("syn1")
	if err != nil {
		return nil, err
	}
	series := []struct {
		label string
		opt   gsim.SearchOptions
		cap   int
	}{
		{"LSAP", gsim.SearchOptions{Method: gsim.LSAP, Tau: tau}, r.opt.LSAPSynCap},
		{"greedysort", gsim.SearchOptions{Method: gsim.GreedySort, Tau: tau}, r.opt.BaselineSynCap},
		{"seriation", gsim.SearchOptions{Method: gsim.Seriation, Tau: tau}, r.opt.BaselineSynCap},
		{"GBDA(g=.60)", gsim.SearchOptions{Method: gsim.GBDA, Tau: tau, Gamma: 0.60}, 0},
		{"GBDA(g=.70)", gsim.SearchOptions{Method: gsim.GBDA, Tau: tau, Gamma: 0.70}, 0},
		{"GBDA(g=.80)", gsim.SearchOptions{Method: gsim.GBDA, Tau: tau, Gamma: 0.80}, 0},
	}
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("%s vs graph size on Syn-1, tau=%d (cf. Fig. %s)", measure, tau, id[3:]),
		Header: []string{"size"},
		Notes:  []string{"micro-averaged over the query workload against generator ground truth"},
	}
	for _, s := range series {
		t.Header = append(t.Header, s.label)
	}
	for _, size := range sortedSizes(env.subsets) {
		e := env.subsets[size]
		row := []string{fmt.Sprint(size)}
		for si, s := range series {
			if s.cap > 0 && size > s.cap {
				row = append(row, "OOM")
				continue
			}
			var (
				agg metrics.Counts
				err error
			)
			if si < 3 {
				// Baseline estimates are t-independent: score once per
				// (size, method, query) and reuse across Figs. 31-42.
				agg, err = r.synBaselineCounts(e, size, s.opt, tau)
			} else {
				opt := s.opt
				opt.Workers = r.opt.Workers
				agg, err = r.effect(e, opt)
			}
			if err != nil {
				return nil, err
			}
			row = append(row, fmtFloat(pick(agg, measure)))
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}, nil
}

// synBaselineCounts thresholds cached scored scans for one synthetic subset.
func (r *runner) synBaselineCounts(e *realEnv, size int, opt gsim.SearchOptions, tau int) (metrics.Counts, error) {
	var agg metrics.Counts
	for _, qi := range r.queries(e.ds) {
		key := fmt.Sprintf("%s|%d|%v|%d", e.ds.Name, size, opt.Method, qi)
		res, ok := r.scoreCache[key]
		if !ok {
			o := opt
			o.CollectAll = true
			o.Workers = r.opt.Workers
			var err error
			res, err = e.db.Search(gsim.CollectionQuery(e.ds.Col, qi), o)
			if err != nil {
				return agg, err
			}
			r.scoreCache[key] = res
		}
		var sel []int
		for _, m := range res.Matches {
			if m.Score <= float64(tau)+1e-9 {
				sel = append(sel, m.Index)
			}
		}
		agg.Add(metrics.Evaluate(sel, e.ds.TruthSet(qi, tau)))
	}
	return agg, nil
}
