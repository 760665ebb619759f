package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"gsim/internal/dataset"
	"gsim/internal/graph"
)

// Paper configuration of every query: GBDA, τ̂ = 3, γ = 0.9.
const (
	queryTau   = 3
	queryGamma = 0.9
	priorsTau  = 5
	priorPairs = 20000
)

// baseShare is the part of the generator's DB graphs that gsimd loads as
// the base (30,000 of 36,095 at scale 1); the rest is the insert pool.
const baseNum, baseDen = 30000, 36095

// wireGraph and wireEdge mirror the server's JSON graph.
type wireGraph struct {
	Name     string     `json:"name,omitempty"`
	Vertices []string   `json:"vertices"`
	Edges    []wireEdge `json:"edges,omitempty"`
}

type wireEdge struct {
	U     int    `json:"u"`
	V     int    `json:"v"`
	Label string `json:"label,omitempty"`
}

// corpusSeed generates the data set. Like the paper's AASD it is one
// fixed collection: --seed decides which queries are asked, in what
// order and by which client, never what is stored, so runs on different
// seeds measure the same corpus and differ only in traffic.
const corpusSeed = 1

// corpus is the generated data set, its split into base / insert pool /
// queries, the exact-GED truth, the pre-encoded query graphs and the
// query order --seed fixes.
type corpus struct {
	ds      *dataset.Dataset
	base    []int // collection indexes; server ID i holds base[i] after the .gsim load
	pool    []int // collection indexes of the insert pool
	queries []int // collection indexes of the held-out queries

	queryJSON [][]byte // wire form of queries[i]
	// truth[i] lists the collection indexes of DB graphs (base and pool)
	// within GED ≤ queryTau of queries[i], ascending.
	truth [][]int
	// order is the seed-fixed query order: checker and ladder take its
	// prefix.
	order []int
	// popular maps a Zipf popularity rank to a query position. Like what
	// is stored it belongs to the corpus, not to --seed: which queries
	// are hot decides what the hot requests cost, so a ranking per seed
	// would make runs on different seeds measure different workloads.
	popular []int
}

// newCorpus generates the aasd profile at the given scale and orders
// its queries by seed.
func newCorpus(seed int64, scale float64) (*corpus, error) {
	cfg, err := dataset.Profile("aasd", scale)
	if err != nil {
		return nil, err
	}
	cfg.Seed = corpusSeed
	ds, err := dataset.Generate(cfg)
	if err != nil {
		return nil, err
	}
	nBase := len(ds.DBGraphs) * baseNum / baseDen
	c := &corpus{
		ds:      ds,
		base:    ds.DBGraphs[:nBase],
		pool:    ds.DBGraphs[nBase:],
		queries: ds.Queries,
	}
	c.queryJSON = make([][]byte, len(c.queries))
	c.truth = make([][]int, len(c.queries))
	for i, q := range c.queries {
		if c.queryJSON[i], err = json.Marshal(c.wire(q)); err != nil {
			return nil, err
		}
		c.truth[i] = ds.TruthSet(q, queryTau)
		sort.Ints(c.truth[i])
	}
	c.order = rand.New(rand.NewSource(seed ^ 0x5eed)).Perm(len(c.queries))
	c.popular = rand.New(rand.NewSource(corpusSeed ^ 0x5eed)).Perm(len(c.queries))
	return c, nil
}

// wire renders collection member idx in the server's JSON form.
func (c *corpus) wire(idx int) wireGraph {
	g, dict := c.ds.Col.Graph(idx), c.ds.Col.Dict
	w := wireGraph{Name: g.Name, Vertices: make([]string, g.NumVertices())}
	for v := range w.Vertices {
		w.Vertices[v] = dict.Name(g.VertexLabel(v))
	}
	for _, e := range g.Edges() {
		w.Edges = append(w.Edges, wireEdge{U: int(e.U), V: int(e.V), Label: dict.Name(e.Label)})
	}
	return w
}

// writeGsim writes the listed collection members as .gsim text.
func (c *corpus) writeGsim(path string, members []int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	for _, idx := range members {
		if err := graph.Write(bw, c.ds.Col.Graph(idx), c.ds.Col.Dict); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sample returns the first n queries of the seed-fixed order (all of
// them when the corpus has fewer).
func (c *corpus) sample(n int) []int {
	if n > len(c.order) {
		n = len(c.order)
	}
	return c.order[:n]
}
