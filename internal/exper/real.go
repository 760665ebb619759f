package exper

import (
	"context"
	"fmt"
	"sort"
	"time"

	"gsim"
	"gsim/internal/metrics"
)

// table3 regenerates the dataset statistics table (Table III).
func (r *runner) table3() ([]*Table, error) {
	t := &Table{
		ID:     "table3",
		Title:  "Statistics of data sets (cf. Table III)",
		Header: []string{"dataset", "|D|", "|Q|", "Vm", "Em", "d", "scale-free"},
		Notes: []string{
			fmt.Sprintf("real profiles generated at scale=%.2f of the paper's volumes; per-graph statistics match Table III", r.opt.Scale),
		},
	}
	for _, name := range r.realSets {
		e, err := r.realEnv(name)
		if err != nil {
			return nil, err
		}
		s := e.ds.Col.Stats()
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprint(len(e.ds.DBGraphs)),
			fmt.Sprint(len(e.ds.Queries)),
			fmt.Sprint(s.MaxV),
			fmt.Sprint(s.MaxE),
			fmt.Sprintf("%.1f", s.AvgDegree),
			fmt.Sprint(e.ds.ScaleFree),
		})
	}
	for _, profile := range []string{"syn1", "syn2"} {
		env, err := r.synEnv(profile)
		if err != nil {
			return nil, err
		}
		for _, size := range sortedSizes(env.subsets) {
			e := env.subsets[size]
			s := e.ds.Col.Stats()
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%s-%dK", profile, size/1000),
				fmt.Sprint(len(e.ds.DBGraphs)),
				fmt.Sprint(len(e.ds.Queries)),
				fmt.Sprint(s.MaxV),
				fmt.Sprint(s.MaxE),
				fmt.Sprintf("%.1f", s.AvgDegree),
				fmt.Sprint(e.ds.ScaleFree),
			})
		}
	}
	return []*Table{t}, nil
}

// table4 measures the offline cost of the GBD prior (Table IV): sampling
// pairs, computing their GBDs and fitting the GMM.
func (r *runner) table4() ([]*Table, error) {
	t := &Table{
		ID:     "table4",
		Title:  "Costs of computing the GBD prior distribution (cf. Table IV)",
		Header: []string{"dataset", "pairs", "time", "space"},
		Notes: []string{
			"space = retained prior artifact (GMM parameters + discretised table)",
			"paper: N=100,000 pairs; 11.1s (AIDS) to 3.8h (Syn-1), growing with n·d",
		},
	}
	add := func(name string, e *realEnv) {
		// Artifact: K components × 3 params + a discretised row per
		// possible ϕ value (ϕ ≤ max |V|).
		space := 3*3*8 + (e.ds.Col.Stats().MaxV+1)*8
		t.Rows = append(t.Rows, []string{
			name, fmt.Sprint(e.samples), fmtSeconds(e.priorT), fmt.Sprintf("%dB", space),
		})
	}
	for _, name := range r.realSets {
		e, err := r.realEnv(name)
		if err != nil {
			return nil, err
		}
		add(name, e)
	}
	for _, profile := range []string{"syn1", "syn2"} {
		env, err := r.synEnv(profile)
		if err != nil {
			return nil, err
		}
		for _, size := range sortedSizes(env.subsets) {
			add(fmt.Sprintf("%s-%dK", profile, size/1000), env.subsets[size])
		}
	}
	return []*Table{t}, nil
}

// table5 measures the offline cost of the GED (Jeffreys) prior (Table V):
// one row per data set, covering every extended size that occurs.
func (r *runner) table5() ([]*Table, error) {
	t := &Table{
		ID:     "table5",
		Title:  "Costs of computing the GED prior distribution (cf. Table V)",
		Header: []string{"dataset", "sizes", "tau-max", "time", "space"},
		Notes: []string{
			"time grows with the number of distinct |V'1| values (O(n·τ̂^5) worst case, Section VI-C)",
			"paper: 70.32h (AIDS) … 6.31h (Syn); hours because every v in 1..n is tabulated — we tabulate occurring sizes only",
		},
	}
	row := func(name string, e *realEnv, tauMax int) error {
		sizes := distinctSizes(e)
		t0 := time.Now()
		for _, v := range sizes {
			if _, err := e.db.GEDPriorRow(v); err != nil {
				return err
			}
		}
		el := time.Since(t0)
		space := len(sizes) * (tauMax + 1) * 8
		t.Rows = append(t.Rows, []string{
			name, fmt.Sprint(len(sizes)), fmt.Sprint(tauMax), fmtSeconds(el), fmt.Sprintf("%dB", space),
		})
		return nil
	}
	for _, name := range r.realSets {
		e, err := r.realEnv(name)
		if err != nil {
			return nil, err
		}
		if err := row(name, e, 10); err != nil {
			return nil, err
		}
	}
	for _, profile := range []string{"syn1", "syn2"} {
		env, err := r.synEnv(profile)
		if err != nil {
			return nil, err
		}
		for _, size := range sortedSizes(env.subsets) {
			if err := row(fmt.Sprintf("%s-%dK", profile, size/1000), env.subsets[size], 30); err != nil {
				return nil, err
			}
		}
	}
	return []*Table{t}, nil
}

func distinctSizes(e *realEnv) []int {
	seen := map[int]bool{}
	for i := 0; i < e.ds.Col.Len(); i++ {
		seen[e.ds.Col.Entry(i).G.NumVertices()] = true
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// fig5 reproduces the inferred GBD prior on the Fingerprint-like data set:
// the sampled histogram against the fitted GMM, per ϕ.
func (r *runner) fig5() ([]*Table, error) {
	e, err := r.realEnv("finger")
	if err != nil {
		return nil, err
	}
	samples := e.ds.Col.SamplePairGBDs(r.opt.SamplePairs, 7)
	maxPhi := 0
	hist := map[int]int{}
	for _, s := range samples {
		hist[int(s)]++
		if int(s) > maxPhi {
			maxPhi = int(s)
		}
	}
	t := &Table{
		ID:     "fig5",
		Title:  "Inferred prior distribution of GBDs on the Fingerprint-like data set (cf. Fig. 5)",
		Header: []string{"phi", "sampled", "inferred"},
		Notes:  []string{"sampled = empirical pair frequency; inferred = GMM mass on [ϕ−.5, ϕ+.5] (Eq. 14)"},
	}
	for phi := 0; phi <= maxPhi; phi++ {
		p, err := e.db.GBDPriorProb(float64(phi))
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(phi),
			fmtFloat(float64(hist[phi]) / float64(len(samples))),
			fmtFloat(p),
		})
	}
	return []*Table{t}, nil
}

// fig6 reproduces the Jeffreys prior heat map: Pr[GED=τ] per extended size.
func (r *runner) fig6() ([]*Table, error) {
	e, err := r.realEnv("finger")
	if err != nil {
		return nil, err
	}
	sizes := distinctSizes(e)
	if len(sizes) > 8 {
		step := len(sizes) / 8
		var pick []int
		for i := 0; i < len(sizes); i += step {
			pick = append(pick, sizes[i])
		}
		sizes = pick
	}
	t := &Table{
		ID:     "fig6",
		Title:  "Jeffreys prior of GEDs on the Fingerprint-like data set (cf. Fig. 6)",
		Header: append([]string{"tau\\v"}, intStrings(sizes)...),
		Notes:  []string{"each column is the prior Pr[GED=τ | |V'1|=v]; the paper renders this grid as grey scale"},
	}
	rows := make([][]string, 11)
	for tau := 0; tau <= 10; tau++ {
		rows[tau] = []string{fmt.Sprint(tau)}
	}
	for _, v := range sizes {
		row, err := e.db.GEDPriorRow(v)
		if err != nil {
			return nil, err
		}
		for tau := 0; tau <= 10 && tau < len(row); tau++ {
			rows[tau] = append(rows[tau], fmtFloat(row[tau]))
		}
	}
	t.Rows = rows
	return []*Table{t}, nil
}

func intStrings(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprint(x)
	}
	return out
}

// fig7 measures average query response time per method on the real-profile
// data sets (Fig. 7): LSAP, greedysort, seriation, GBDA at τ̂ ∈ {1, 5, 10}.
func (r *runner) fig7() ([]*Table, error) {
	t := &Table{
		ID:     "fig7",
		Title:  "Average query time on real data sets (cf. Fig. 7)",
		Header: []string{"dataset", "LSAP", "greedysort", "seriation", "GBDA(t=1)", "GBDA(t=5)", "GBDA(t=10)"},
		Notes: []string{
			"seconds per query, averaged over the query workload",
			"paper shape: GBDA fastest on every real data set at every τ̂",
		},
	}
	for _, name := range r.realSets {
		e, err := r.realEnv(name)
		if err != nil {
			return nil, err
		}
		row := []string{name}
		for _, cfg := range []gsim.SearchOptions{
			{Method: gsim.LSAP, Tau: 5},
			{Method: gsim.GreedySort, Tau: 5},
			{Method: gsim.Seriation, Tau: 5},
			{Method: gsim.GBDA, Tau: 1, Gamma: 0.9},
			{Method: gsim.GBDA, Tau: 5, Gamma: 0.9},
			{Method: gsim.GBDA, Tau: 10, Gamma: 0.9},
		} {
			avg, err := r.timeQueries(e, cfg)
			if err != nil {
				return nil, err
			}
			row = append(row, fmtSeconds(avg))
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}, nil
}

// timeQueries runs the configured search for each query and returns the
// mean wall-clock latency.
func (r *runner) timeQueries(e *realEnv, opt gsim.SearchOptions) (time.Duration, error) {
	opt.Workers = r.opt.Workers
	qs := r.queries(e.ds)
	var total time.Duration
	for _, qi := range qs {
		res, err := e.db.Search(gsim.CollectionQuery(e.ds.Col, qi), opt)
		if err != nil {
			return 0, err
		}
		total += res.Elapsed
	}
	return total / time.Duration(len(qs)), nil
}

// figEffectReal renders precision/recall/F1 vs τ̂ for one real data set
// (Figs. 10–21): the three baselines plus GBDA at γ ∈ {0.7, 0.8, 0.9}.
// Baselines are scored once per query (their estimates are τ̂-independent)
// and thresholded across the whole τ̂ sweep.
func (r *runner) figEffectReal(id, measure, name string) ([]*Table, error) {
	e, err := r.realEnv(name)
	if err != nil {
		return nil, err
	}
	taus := make([]int, 10)
	for i := range taus {
		taus[i] = i + 1
	}
	series := []struct {
		label    string
		opt      gsim.SearchOptions
		baseline bool
	}{
		{"LSAP", gsim.SearchOptions{Method: gsim.LSAP}, true},
		{"greedysort", gsim.SearchOptions{Method: gsim.GreedySort}, true},
		{"seriation", gsim.SearchOptions{Method: gsim.Seriation}, true},
		{"GBDA(g=.70)", gsim.SearchOptions{Method: gsim.GBDA, Gamma: 0.70}, false},
		{"GBDA(g=.80)", gsim.SearchOptions{Method: gsim.GBDA, Gamma: 0.80}, false},
		{"GBDA(g=.90)", gsim.SearchOptions{Method: gsim.GBDA, Gamma: 0.90}, false},
	}
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("%s vs tau on %s (cf. Fig. %s)", measure, name, id[3:]),
		Header: []string{"tau"},
		Notes:  []string{"micro-averaged over the query workload against exact ground truth"},
	}
	grid := make([]map[int]metrics.Counts, len(series))
	for i, s := range series {
		t.Header = append(t.Header, s.label)
		if s.baseline {
			grid[i], err = r.baselineCounts(e, s.opt, taus)
		} else {
			grid[i], err = r.gbdaCounts(e, s.opt, taus)
		}
		if err != nil {
			return nil, err
		}
	}
	for _, tau := range taus {
		row := []string{fmt.Sprint(tau)}
		for i := range series {
			row = append(row, fmtFloat(pick(grid[i][tau], measure)))
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}, nil
}

// baselineCounts evaluates a τ̂-independent estimator across all thresholds
// with one scored scan per query, batched so the scorer is prepared once
// for the whole workload.
func (r *runner) baselineCounts(e *realEnv, opt gsim.SearchOptions, taus []int) (map[int]metrics.Counts, error) {
	out := make(map[int]metrics.Counts, len(taus))
	opt.CollectAll = true
	opt.Workers = r.opt.Workers
	opt.Tau = taus[len(taus)-1]
	qis := r.queries(e.ds)
	// SearchBatchFunc keeps one scored scan live at a time — CollectAll
	// holds a match per database graph, so materialising the whole batch
	// would cost O(queries × |D|).
	err := e.db.SearchBatchFunc(context.Background(), r.prepared(e, qis), opt, func(n int, res *gsim.Result) error {
		qi := qis[n]
		for _, tau := range taus {
			var sel []int
			for _, m := range res.Matches {
				if m.Score <= float64(tau)+1e-9 {
					sel = append(sel, m.Index)
				}
			}
			c := out[tau]
			c.Add(metrics.Evaluate(sel, e.ds.TruthSet(qi, tau)))
			out[tau] = c
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// prepared materialises the query workload for SearchBatch.
func (r *runner) prepared(e *realEnv, qis []int) []*gsim.Query {
	qs := make([]*gsim.Query, len(qis))
	for i, qi := range qis {
		qs[i] = gsim.CollectionQuery(e.ds.Col, qi)
	}
	return qs
}

// gbdaCounts evaluates a GBDA-family configuration per threshold: the
// posterior depends on τ̂ itself, but each scan is only O(n·d + τ̂³).
func (r *runner) gbdaCounts(e *realEnv, opt gsim.SearchOptions, taus []int) (map[int]metrics.Counts, error) {
	out := make(map[int]metrics.Counts, len(taus))
	for _, tau := range taus {
		o := opt
		o.Tau = tau
		o.Workers = r.opt.Workers
		agg, err := r.effect(e, o)
		if err != nil {
			return nil, err
		}
		out[tau] = agg
	}
	return out, nil
}

// effect runs the search for every query in one batch and micro-averages
// the confusion against the dataset's certified ground truth.
func (r *runner) effect(e *realEnv, opt gsim.SearchOptions) (metrics.Counts, error) {
	var agg metrics.Counts
	qis := r.queries(e.ds)
	err := e.db.SearchBatchFunc(context.Background(), r.prepared(e, qis), opt, func(n int, res *gsim.Result) error {
		agg.Add(metrics.Evaluate(res.Indexes(), e.ds.TruthSet(qis[n], opt.Tau)))
		return nil
	})
	return agg, err
}

func pick(c metrics.Counts, measure string) float64 {
	switch measure {
	case "precision":
		return c.Precision()
	case "recall":
		return c.Recall()
	default:
		return c.F1()
	}
}

// figVariant compares GBDA against its V1 (α ∈ {10,50,100}) or V2
// (w ∈ {0.1, 0.5}) alternatives by F1 at γ = 0.9 (Figs. 22–29).
func (r *runner) figVariant(id, variant, name string) ([]*Table, error) {
	e, err := r.realEnv(name)
	if err != nil {
		return nil, err
	}
	var series []struct {
		label string
		opt   gsim.SearchOptions
	}
	series = append(series, struct {
		label string
		opt   gsim.SearchOptions
	}{"GBDA", gsim.SearchOptions{Method: gsim.GBDA, Gamma: 0.9}})
	if variant == "v1" {
		for _, alpha := range []int{10, 50, 100} {
			series = append(series, struct {
				label string
				opt   gsim.SearchOptions
			}{fmt.Sprintf("V1(a=%d)", alpha), gsim.SearchOptions{Method: gsim.GBDAV1, Gamma: 0.9, V1Sample: alpha}})
		}
	} else {
		for _, w := range []float64{0.1, 0.5} {
			series = append(series, struct {
				label string
				opt   gsim.SearchOptions
			}{fmt.Sprintf("V2(w=%.1f)", w), gsim.SearchOptions{Method: gsim.GBDAV2, Gamma: 0.9, V2Weight: w}})
		}
	}
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("F1 vs tau on %s, GBDA vs GBDA-%s (cf. Fig. %s)", name, variant, id[3:]),
		Header: []string{"tau"},
	}
	for _, s := range series {
		t.Header = append(t.Header, s.label)
	}
	for tau := 1; tau <= 10; tau++ {
		row := []string{fmt.Sprint(tau)}
		for _, s := range series {
			opt := s.opt
			opt.Tau = tau
			opt.Workers = r.opt.Workers
			agg, err := r.effect(e, opt)
			if err != nil {
				return nil, err
			}
			row = append(row, fmtFloat(agg.F1()))
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}, nil
}
