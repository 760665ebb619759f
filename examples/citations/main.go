// Citations: similarity search over directed, weighted graphs. The paper's
// model handles only undirected labeled simple graphs, but Section II notes
// that directions and weights fold into edge labels; this example exercises
// that folding through the public API on a toy citation-network corpus.
//
// Each graph is an ego network: a paper, the works it cites (outgoing arcs)
// and the works citing it (incoming arcs), with citation "strength" folded
// into weight buckets.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"gsim"
)

func egoNetwork(d *gsim.Database, name string, rng *rand.Rand, mutate int) *gsim.GraphBuilder {
	b := d.NewGraph(name)
	center := b.AddVertex("paper")
	wb := gsim.WeightBuckets{Min: 0, Max: 1, Buckets: 4}

	kinds := []string{"method", "survey", "dataset", "theory"}
	// Five cited works (outgoing), three citing works (incoming).
	for i := 0; i < 5; i++ {
		v := b.AddVertex(kinds[i%len(kinds)])
		if err := b.AddDirectedEdge(center, v, "cites"); err != nil {
			log.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		v := b.AddVertex(kinds[(i+1)%len(kinds)])
		if err := b.AddDirectedEdge(v, center, "cites"); err != nil {
			log.Fatal(err)
		}
	}
	// A weighted co-citation ring among the cited works.
	for i := 0; i < 4; i++ {
		w := 0.2 + 0.2*float64(i)
		if err := b.AddWeightedEdge(1+i, 2+i, w, wb); err != nil {
			log.Fatal(err)
		}
	}
	// Mutations: relabel some satellite vertices to new topics.
	alts := []string{"benchmark", "position", "tool"}
	for i := 0; i < mutate; i++ {
		v := b.AddVertex(alts[rng.Intn(len(alts))])
		if err := b.AddDirectedEdge(center, v, "cites"); err != nil {
			log.Fatal(err)
		}
	}
	return b
}

func main() {
	d := gsim.New(gsim.WithName("citations"))
	rng := rand.New(rand.NewSource(7))

	for i := 0; i < 24; i++ {
		b := egoNetwork(d, fmt.Sprintf("paper-%02d", i), rng, i%4)
		if _, err := b.Store(); err != nil {
			log.Fatal(err)
		}
	}
	if err := d.BuildPriors(gsim.OfflineConfig{TauMax: 5, SamplePairs: 3000}); err != nil {
		log.Fatal(err)
	}

	q := egoNetwork(d, "query-paper", rng, 0).Query()
	res, err := d.SearchTopK(q, gsim.TopKOptions{Method: gsim.GBDA, K: 5, Tau: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("5 nearest ego networks to %q (directed+weighted, folded labels):\n", q.Name())
	for i, m := range res.Matches {
		fmt.Printf("  %d. %-10s posterior=%.3f\n", i+1, m.Name, m.Score)
	}

	// Direction matters: reversing every arc must push a graph away.
	rev := d.NewGraph("reversed")
	center := rev.AddVertex("paper")
	kinds := []string{"method", "survey", "dataset", "theory"}
	for i := 0; i < 5; i++ {
		v := rev.AddVertex(kinds[i%len(kinds)])
		if err := rev.AddDirectedEdge(v, center, "cites"); err != nil { // flipped
			log.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		v := rev.AddVertex(kinds[(i+1)%len(kinds)])
		if err := rev.AddDirectedEdge(center, v, "cites"); err != nil { // flipped
			log.Fatal(err)
		}
	}
	wb := gsim.WeightBuckets{Min: 0, Max: 1, Buckets: 4}
	for i := 0; i < 4; i++ {
		if err := rev.AddWeightedEdge(1+i, 2+i, 0.2+0.2*float64(i), wb); err != nil {
			log.Fatal(err)
		}
	}
	fwd := egoNetwork(d, "forward", rng, 0)
	fq, rq := fwd.Query(), rev.Query()
	same, err := d.Search(fq, gsim.SearchOptions{Method: gsim.GBDA, Tau: 2, Gamma: 0.5})
	if err != nil {
		log.Fatal(err)
	}
	flipped, err := d.Search(rq, gsim.SearchOptions{Method: gsim.GBDA, Tau: 2, Gamma: 0.5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmatches for the original orientation: %d; for the reversed: %d\n",
		len(same.Matches), len(flipped.Matches))
	fmt.Println("(direction folding makes reversed citation flow look dissimilar)")
}
