// Package exper regenerates every table and figure of the paper's
// evaluation (Section VII). Each experiment is addressed by the paper's
// artifact id ("table3" … "table5", "fig5" … "fig42") and renders a text
// table with the same rows/series the paper plots; EXPERIMENTS.md records
// the paper-vs-measured comparison.
//
// Scale: the default options shrink dataset volumes (not per-graph
// statistics) so the whole suite runs on a laptop in minutes. Options.Scale
// and Options.SynSizes restore the paper's full dimensions for users with
// the paper's 128 GB class of hardware.
package exper

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"gsim"
	"gsim/internal/dataset"
	"gsim/internal/db"
)

// Options dimension an experiment run.
type Options struct {
	// Scale shrinks the real-profile dataset volumes (default 0.04).
	Scale float64
	// SynSizes lists the synthetic subset sizes (default 1000, 2000, 5000).
	SynSizes []int
	// SynGraphs is the graph count per synthetic subset (default 12;
	// paper: 500).
	SynGraphs int
	// MaxQueries caps the query workload per dataset (default 4).
	MaxQueries int
	// SamplePairs for the GBD prior (default 20000; paper: 100000).
	SamplePairs int
	// LSAPSynCap is the largest synthetic size the exact-LSAP baseline
	// attempts; beyond it the harness reports the paper's OOM outcome
	// (default 1000 — O(n³) per pair).
	LSAPSynCap int
	// BaselineSynCap bounds greedy/seriation similarly (default 5000).
	BaselineSynCap int
	// MaxDBGraphs caps the searched database per dataset so the O(n³)
	// baselines stay tractable at default scale (default 300; 0 keeps
	// everything). Ground truth is evaluated over the same cap.
	MaxDBGraphs int
	// Workers for parallel scans (≤ 0: GOMAXPROCS).
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 0.04
	}
	if len(o.SynSizes) == 0 {
		o.SynSizes = []int{1000, 2000, 5000}
	}
	if o.SynGraphs <= 0 {
		o.SynGraphs = 24
	}
	if o.MaxQueries <= 0 {
		o.MaxQueries = 4
	}
	if o.SamplePairs <= 0 {
		o.SamplePairs = 20000
	}
	if o.LSAPSynCap <= 0 {
		o.LSAPSynCap = 1000
	}
	if o.BaselineSynCap <= 0 {
		o.BaselineSynCap = 5000
	}
	if o.MaxDBGraphs == 0 {
		o.MaxDBGraphs = 300
	}
	return o
}

// Table is one rendered experiment artifact.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	line(dashes(widths))
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	for len(s) < w {
		s += " "
	}
	return s
}

func dashes(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

// IDs lists every runnable experiment id in paper order.
func IDs() []string {
	ids := []string{"table3", "table4", "table5", "fig5", "fig6", "fig7", "fig8", "fig9"}
	for f := 10; f <= 29; f++ {
		ids = append(ids, fmt.Sprintf("fig%d", f))
	}
	for f := 31; f <= 42; f++ {
		ids = append(ids, fmt.Sprintf("fig%d", f))
	}
	return ids
}

// Run executes one experiment by id and writes its table(s) to w.
func Run(id string, opt Options, w io.Writer) error {
	opt = opt.withDefaults()
	r := newRunner(opt)
	tables, err := r.run(strings.ToLower(id))
	if err != nil {
		return err
	}
	for _, t := range tables {
		t.Fprint(w)
	}
	return nil
}

// RunAll executes every experiment in paper order.
func RunAll(opt Options, w io.Writer) error {
	opt = opt.withDefaults()
	r := newRunner(opt)
	for _, id := range IDs() {
		tables, err := r.run(id)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		for _, t := range tables {
			t.Fprint(w)
		}
	}
	return nil
}

// runner caches generated datasets and fitted priors across experiments so
// RunAll does not regenerate AASD twelve times.
type runner struct {
	opt        Options
	real       map[string]*realEnv
	syn        map[string]*synEnv
	realSets   []string
	scoreCache map[string]*gsim.Result
}

func newRunner(opt Options) *runner {
	return &runner{
		opt:        opt,
		real:       make(map[string]*realEnv),
		syn:        make(map[string]*synEnv),
		realSets:   []string{"aids", "finger", "grec", "aasd"},
		scoreCache: make(map[string]*gsim.Result),
	}
}

func (r *runner) run(id string) ([]*Table, error) {
	switch {
	case id == "xprefilter":
		return r.xPrefilter()
	case id == "xhybrid":
		return r.xHybrid()
	case id == "table3":
		return r.table3()
	case id == "table4":
		return r.table4()
	case id == "table5":
		return r.table5()
	case id == "fig5":
		return r.fig5()
	case id == "fig6":
		return r.fig6()
	case id == "fig7":
		return r.fig7()
	case id == "fig8":
		return r.figTimeSyn("fig8", "syn1")
	case id == "fig9":
		return r.figTimeSyn("fig9", "syn2")
	case isBetween(id, 10, 13):
		return r.figEffectReal(id, "precision", figDataset(id, 10))
	case isBetween(id, 14, 17):
		return r.figEffectReal(id, "recall", figDataset(id, 14))
	case isBetween(id, 18, 21):
		return r.figEffectReal(id, "f1", figDataset(id, 18))
	case isBetween(id, 22, 25):
		return r.figVariant(id, "v1", figDataset(id, 22))
	case isBetween(id, 26, 29):
		return r.figVariant(id, "v2", figDataset(id, 26))
	case isBetween(id, 31, 34):
		return r.figEffectSyn(id, "precision", synTau(id, 31))
	case isBetween(id, 35, 38):
		return r.figEffectSyn(id, "recall", synTau(id, 35))
	case isBetween(id, 39, 42):
		return r.figEffectSyn(id, "f1", synTau(id, 39))
	default:
		return nil, fmt.Errorf("unknown experiment %q (known: %s)", id, strings.Join(IDs(), " "))
	}
}

func isBetween(id string, lo, hi int) bool {
	var n int
	if _, err := fmt.Sscanf(id, "fig%d", &n); err != nil {
		return false
	}
	return n >= lo && n <= hi
}

func figDataset(id string, base int) string {
	var n int
	fmt.Sscanf(id, "fig%d", &n)
	return []string{"aids", "finger", "grec", "aasd"}[n-base]
}

func synTau(id string, base int) int {
	var n int
	fmt.Sscanf(id, "fig%d", &n)
	return []int{15, 20, 25, 30}[n-base]
}

// realEnv bundles a generated real-profile dataset with its database and
// fitted priors.
type realEnv struct {
	ds      *dataset.Dataset
	db      *gsim.Database
	built   time.Duration // dataset generation time
	priorT  time.Duration // GBD prior fit time
	samples int
	// timingDB is a fixed-size slice of the database used by the latency
	// figures, so the O(n³) baselines stay measurable at every graph
	// size; per-query time scales linearly in |D|.
	timingDB *gsim.Database
}

// timingView lazily builds the 8-graph timing slice.
func (e *realEnv) timingView() (*gsim.Database, error) {
	if e.timingDB != nil {
		return e.timingDB, nil
	}
	slice := e.ds.DBGraphs
	if len(slice) > 8 {
		slice = slice[:8]
	}
	tdb, err := storeWithPriors(e.ds.Col, slice, gsim.OfflineConfig{TauMax: 30, SamplePairs: 2000, Seed: 5})
	if err != nil {
		return nil, err
	}
	e.timingDB = tdb
	return tdb, nil
}

// storeWithPriors returns a database of the collection graphs whose
// indexes ids lists, carrying priors fitted with cfg over the whole collection, held-out
// queries included: the population the paper samples its priors from, and
// the one the figures were calibrated on.
func storeWithPriors(col *db.Collection, ids []int, cfg gsim.OfflineConfig) (*gsim.Database, error) {
	var priors bytes.Buffer
	full := gsim.FromCollection(col, nil)
	if err := full.BuildPriors(cfg); err != nil {
		return nil, err
	}
	if err := full.SavePriors(&priors); err != nil {
		return nil, err
	}
	d := gsim.FromCollection(col, ids)
	if err := d.LoadPriors(&priors); err != nil {
		return nil, err
	}
	return d, nil
}

func (r *runner) realEnv(name string) (*realEnv, error) {
	if e, ok := r.real[name]; ok {
		return e, nil
	}
	cfg, err := dataset.Profile(name, r.opt.Scale)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	ds, err := dataset.Generate(cfg)
	if err != nil {
		return nil, err
	}
	built := time.Since(t0)
	r.capDB(ds)
	t1 := time.Now()
	d, err := storeWithPriors(ds.Col, ds.DBGraphs, gsim.OfflineConfig{
		TauMax:      10,
		SamplePairs: r.opt.SamplePairs,
		Seed:        7,
	})
	if err != nil {
		return nil, err
	}
	e := &realEnv{ds: ds, db: d, built: built, priorT: time.Since(t1), samples: r.opt.SamplePairs}
	r.real[name] = e
	return e, nil
}

// capDB shrinks the searched database (and hence the evaluated truth
// universe) to MaxDBGraphs so the cubic baselines stay tractable at the
// default scale.
func (r *runner) capDB(ds *dataset.Dataset) {
	if r.opt.MaxDBGraphs > 0 && len(ds.DBGraphs) > r.opt.MaxDBGraphs {
		ds.DBGraphs = ds.DBGraphs[:r.opt.MaxDBGraphs]
	}
}

// queries returns the capped query workload of a dataset.
func (r *runner) queries(ds *dataset.Dataset) []int {
	qs := ds.Queries
	if len(qs) > r.opt.MaxQueries {
		qs = qs[:r.opt.MaxQueries]
	}
	return qs
}

// synEnv bundles the per-size subsets of one synthetic family.
type synEnv struct {
	profile string
	sizes   []int
	subsets map[int]*realEnv
}

func (r *runner) synEnv(profile string) (*synEnv, error) {
	if e, ok := r.syn[profile]; ok {
		return e, nil
	}
	e := &synEnv{profile: profile, sizes: r.opt.SynSizes, subsets: make(map[int]*realEnv)}
	for i, size := range e.sizes {
		cfg, err := dataset.SynSubset(profile, size, r.opt.SynGraphs, int64(200+i))
		if err != nil {
			return nil, err
		}
		// At scaled-down graph counts keep the paper's multi-cluster
		// structure (500 graphs / 50 per cluster = 10 clusters): a
		// single-cluster subset would degenerate the GBD prior and
		// concentrate Λ2, deflating the posterior scale.
		if cfg.ClusterSize > cfg.NumGraphs/6 {
			cfg.ClusterSize = cfg.NumGraphs / 6
			if cfg.ClusterSize < 2 {
				cfg.ClusterSize = 2
			}
		}
		t0 := time.Now()
		ds, err := dataset.Generate(cfg)
		if err != nil {
			return nil, err
		}
		built := time.Since(t0)
		r.capDB(ds)
		t1 := time.Now()
		d, err := storeWithPriors(ds.Col, ds.DBGraphs, gsim.OfflineConfig{
			TauMax:      30,
			SamplePairs: r.opt.SamplePairs / 4,
			Seed:        int64(11 + i),
		})
		if err != nil {
			return nil, err
		}
		e.subsets[size] = &realEnv{ds: ds, db: d, built: built, priorT: time.Since(t1), samples: r.opt.SamplePairs / 4}
	}
	r.syn[profile] = e
	return e, nil
}

func fmtSeconds(d time.Duration) string {
	return fmt.Sprintf("%.4gs", d.Seconds())
}

func fmtFloat(v float64) string { return fmt.Sprintf("%.3f", v) }

func sortedSizes(m map[int]*realEnv) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
