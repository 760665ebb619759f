// Command gbda runs graph similarity searches over a .gsim text database.
//
// The database file holds one stanza per graph:
//
//	g caffeine 14
//	v 0 C
//	v 1 N
//	e 0 1 single
//	...
//
// The query file holds exactly one stanza in the same format.
//
// Usage:
//
//	gbda -db molecules.gsim -query q.gsim -tau 3 -gamma 0.9
//	gbda -db molecules.gsim -query q.gsim -method lsap -tau 3
//	gbda -db molecules.gsim -stats
//
// Methods: gbda (default), gbda-v1, gbda-v2, lsap, greedysort, seriation,
// exact, hybrid.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gsim"
)

func main() {
	var (
		dbPath  = flag.String("db", "", "path to the .gsim database file (required)")
		qPath   = flag.String("query", "", "path to the .gsim query file")
		method  = flag.String("method", "gbda", "search method: "+methodNames())
		tau     = flag.Int("tau", 3, "similarity threshold τ̂ (GED)")
		gamma   = flag.Float64("gamma", 0.9, "probability threshold γ (GBDA family)")
		tauMax  = flag.Int("tau-max", 10, "largest τ̂ the offline priors support")
		pairs   = flag.Int("pairs", 20000, "sampled pairs for the GBD prior")
		workers = flag.Int("workers", 0, "scan workers (0 = GOMAXPROCS)")
		stats   = flag.Bool("stats", false, "print database statistics and exit")
		topk    = flag.Int("topk", 0, "return the k most similar graphs instead of thresholding")
		prefilt = flag.Bool("prefilter", false, "apply the admissible size/label/branch pre-filter")
	)
	flag.Parse()
	if *dbPath == "" {
		fmt.Fprintln(os.Stderr, "gbda: -db is required")
		flag.Usage()
		os.Exit(2)
	}

	d := gsim.New(gsim.WithName(*dbPath))
	f, err := os.Open(*dbPath)
	if err != nil {
		fail(err)
	}
	_, err = d.LoadText(f)
	f.Close()
	if err != nil {
		fail(fmt.Errorf("loading %s: %w", *dbPath, err))
	}
	if *stats {
		fmt.Printf("%s: %d graphs, %v\n", *dbPath, d.Len(), d.Stats())
		return
	}
	if *qPath == "" {
		fmt.Fprintln(os.Stderr, "gbda: -query is required unless -stats")
		os.Exit(2)
	}

	m, err := gsim.ParseMethod(*method)
	if err != nil {
		fail(err)
	}
	if m.NeedsPriors() {
		if *tau > *tauMax {
			fail(fmt.Errorf("tau %d exceeds -tau-max %d", *tau, *tauMax))
		}
		fmt.Fprintf(os.Stderr, "gbda: fitting priors over %d sampled pairs...\n", *pairs)
		if err := d.BuildPriors(gsim.OfflineConfig{TauMax: *tauMax, SamplePairs: *pairs}); err != nil {
			fail(err)
		}
	}

	qf, err := os.Open(*qPath)
	if err != nil {
		fail(err)
	}
	defer qf.Close()
	q, err := d.LoadQueryText(qf)
	if err != nil {
		fail(fmt.Errorf("loading %s: %w", *qPath, err))
	}

	var res *gsim.Result
	if *topk > 0 {
		res, err = d.SearchTopK(q, gsim.TopKOptions{
			Method:  m,
			K:       *topk,
			Tau:     *tau,
			Workers: *workers,
		})
	} else {
		res, err = d.Search(q, gsim.SearchOptions{
			Method:    m,
			Tau:       *tau,
			Gamma:     *gamma,
			Workers:   *workers,
			Prefilter: *prefilt,
		})
	}
	if err != nil {
		fail(err)
	}
	fmt.Printf("method=%v tau=%d gamma=%.2f scanned=%d elapsed=%v matches=%d\n",
		res.Method, *tau, *gamma, res.Scanned, res.Elapsed, len(res.Matches))
	for _, match := range res.Matches {
		fmt.Printf("  %-24s score=%.4f\n", match.Name, match.Score)
	}
}

// methodNames renders the registered method list for the -method usage.
func methodNames() string {
	var names []string
	for _, m := range gsim.Methods() {
		names = append(names, strings.ToLower(m.String()))
	}
	return strings.Join(names, "|")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "gbda:", err)
	os.Exit(1)
}
