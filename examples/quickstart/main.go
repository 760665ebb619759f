// Quickstart: build a small graph database, fit the offline priors, and run
// a probabilistic similarity search — the minimal end-to-end GBDA flow.
package main

import (
	"context"
	"fmt"
	"log"

	"gsim"
)

func main() {
	d := gsim.New(gsim.WithName("quickstart"))

	// A tiny "molecule" library. Each graph is a labeled undirected
	// graph; labels are free-form strings interned by the database.
	addChain := func(name string, atoms []string, bonds []string) {
		b := d.NewGraph(name)
		ids := make([]int, len(atoms))
		for i, a := range atoms {
			ids[i] = b.AddVertex(a)
		}
		for i, bond := range bonds {
			if err := b.AddEdge(ids[i], ids[i+1], bond); err != nil {
				log.Fatal(err)
			}
		}
		if _, err := b.Store(); err != nil {
			log.Fatal(err)
		}
	}
	addChain("ethanol", []string{"C", "C", "O"}, []string{"single", "single"})
	addChain("acetaldehyde", []string{"C", "C", "O"}, []string{"single", "double"})
	addChain("propanol", []string{"C", "C", "C", "O"}, []string{"single", "single", "single"})
	addChain("glycol-ish", []string{"O", "C", "C", "O"}, []string{"single", "single", "single"})
	addChain("butane", []string{"C", "C", "C", "C"}, []string{"single", "single", "single"})
	addChain("ammonia-chain", []string{"N", "N", "N"}, []string{"single", "single"})

	// Offline stage (Algorithm 1, Step 1): sample pairs, fit the GBD
	// prior, prepare the Jeffreys-prior workspace.
	if err := d.BuildPriors(gsim.OfflineConfig{TauMax: 4, SamplePairs: 2000}); err != nil {
		log.Fatal(err)
	}

	// The query: an ethanol-like chain with one different bond label.
	qb := d.NewGraph("query")
	c1 := qb.AddVertex("C")
	c2 := qb.AddVertex("C")
	o := qb.AddVertex("O")
	must(qb.AddEdge(c1, c2, "single"))
	must(qb.AddEdge(c2, o, "double"))
	q := qb.Query()

	res, err := d.Search(q, gsim.SearchOptions{
		Method: gsim.GBDA,
		Tau:    2,   // accept graphs within GED 2
		Gamma:  0.5, // with posterior confidence at least 0.5
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("query %q against %d graphs (%v)\n", q.Name(), res.Scanned, res.Elapsed)
	fmt.Printf("matches with Pr[GED ≤ 2 | GBD] ≥ 0.5:\n")
	for _, m := range res.Matches {
		fmt.Printf("  %-14s posterior=%.3f\n", m.Name, m.Score)
	}

	// Cross-check with exact GED (A*), feasible at this size.
	exact, err := d.Search(q, gsim.SearchOptions{Method: gsim.Exact, Tau: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact verification (GED ≤ 2):\n")
	for _, m := range exact.Matches {
		fmt.Printf("  %-14s GED=%.0f\n", m.Name, m.Score)
	}

	// Streaming: stop the scan at the first acceptable match instead of
	// collecting everything — the "does anything similar exist?" query.
	var first gsim.Match
	_, err = d.SearchStream(context.Background(), q,
		gsim.SearchOptions{Method: gsim.GBDA, Tau: 2, Gamma: 0.5},
		func(m gsim.Match) bool {
			first = m
			return false // one hit is enough; stop the scan
		})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("first streamed hit: %s (posterior=%.3f)\n", first.Name, first.Score)

	// Multi-query batch: rank the top 3 neighbours of several queries with
	// one prepared search — the scorer and snapshot are set up once, then
	// each query runs its own ranked scan.
	batch := []*gsim.Query{q, d.Query(0), d.Query(4)}
	ranked, err := d.SearchTopKBatch(context.Background(), batch,
		gsim.TopKOptions{Method: gsim.GBDA, K: 3, Tau: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top-3 per query, one prepared search:\n")
	for i, r := range ranked {
		fmt.Printf("  %-14s →", batch[i].Name())
		for _, m := range r.Matches {
			fmt.Printf(" %s(%.2f)", m.Name, m.Score)
		}
		fmt.Println()
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
