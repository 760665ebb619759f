// Command experiments regenerates the paper's evaluation artifacts: every
// table and figure of Section VII, addressed by id (table3…table5,
// fig5…fig42). Results print as aligned text tables; EXPERIMENTS.md records
// the paper-vs-measured comparison.
//
// Usage:
//
//	experiments -exp fig7                 # one artifact
//	experiments -exp all                  # the whole suite, paper order
//	experiments -exp fig8 -syn-sizes 1000,2000,5000,10000 -syn-graphs 50
//	experiments -exp fig10 -scale 0.25 -queries 20
//
// Default volumes are laptop-sized; raise -scale/-syn-sizes toward the
// paper's dimensions given time and memory.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"gsim/internal/exper"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (table3..table5, fig5..fig42) or 'all'")
		scale    = flag.Float64("scale", 0.04, "fraction of the paper's real-dataset volumes")
		synSizes = flag.String("syn-sizes", "1000,2000,5000", "comma-separated synthetic graph sizes")
		synN     = flag.Int("syn-graphs", 12, "graphs per synthetic subset (paper: 500)")
		queries  = flag.Int("queries", 4, "max query graphs per dataset")
		pairs    = flag.Int("pairs", 20000, "sampled pairs for the GBD prior (paper: 100000)")
		lsapCap  = flag.Int("lsap-cap", 1000, "largest synthetic size for the O(n^3) LSAP baseline")
		baseCap  = flag.Int("baseline-cap", 5000, "largest synthetic size for greedy/seriation baselines")
		workers  = flag.Int("workers", 0, "scan workers (0 = GOMAXPROCS)")
		list     = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		for _, id := range exper.IDs() {
			fmt.Println(id)
		}
		for _, id := range exper.ExtensionIDs() {
			fmt.Printf("%s (extension)\n", id)
		}
		return
	}

	sizes, err := parseSizes(*synSizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	opt := exper.Options{
		Scale:          *scale,
		SynSizes:       sizes,
		SynGraphs:      *synN,
		MaxQueries:     *queries,
		SamplePairs:    *pairs,
		LSAPSynCap:     *lsapCap,
		BaselineSynCap: *baseCap,
		Workers:        *workers,
	}
	if strings.EqualFold(*exp, "all") {
		err = exper.RunAll(opt, os.Stdout)
	} else {
		err = exper.Run(*exp, opt, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 10 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no sizes given")
	}
	return out, nil
}
