package dataset

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"

	"gsim/internal/db"
	"gsim/internal/graph"
)

// Config dimensions one generated data set. Zero values select sane
// defaults; see Profile for presets matching the paper's Table III.
type Config struct {
	Name          string
	NumGraphs     int     // |D| including query graphs
	QueryFraction float64 // fraction reserved as query workload (paper: 5%)
	MinV, MaxV    int     // vertex count range per graph
	ExtraPerV     float64 // extra edges per vertex beyond the spanning links
	ConnectProb   float64 // probability vertex i links to some j < i (1 = connected)
	ScaleFree     bool    // preferential attachment (Syn-1) vs uniform (Syn-2)
	LV, LE        int     // alphabet sizes
	PoolSize      int     // per-cluster vertex-label sub-alphabet size
	ClusterSize   int     // variants per template
	ModSlots      int     // maximum modification slots (GED range within cluster)
	SigDepth      int     // signature depth for modification centers
	GuardTau      int     // guaranteed inter-cluster GED lower bound
	Seed          int64
}

func (c Config) withDefaults() Config {
	if c.NumGraphs <= 0 {
		c.NumGraphs = 200
	}
	if c.QueryFraction <= 0 {
		c.QueryFraction = 0.05
	}
	if c.MinV <= 0 {
		c.MinV = 16
	}
	if c.MaxV < c.MinV {
		c.MaxV = c.MinV
	}
	if c.ConnectProb <= 0 || c.ConnectProb > 1 {
		c.ConnectProb = 1
	}
	if c.LV <= 0 {
		c.LV = 20
	}
	if c.LE <= 0 {
		c.LE = 4
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 6
	}
	if c.ClusterSize <= 0 {
		c.ClusterSize = 20
	}
	if c.ModSlots <= 0 {
		c.ModSlots = 11
	}
	if c.SigDepth <= 0 {
		c.SigDepth = 2
	}
	if c.GuardTau <= 0 {
		c.GuardTau = 10
	}
	return c
}

// Dataset is a generated collection with exact similarity ground truth.
type Dataset struct {
	Config
	Col *db.Collection
	// Queries and DBGraphs partition the collection indexes into the
	// query workload and the searched database (Section VII-A).
	Queries  []int
	DBGraphs []int
	// ClusterOf maps a collection index to its cluster (template) id.
	ClusterOf []int

	slots [][]int32 // per graph: slot 0 = center label, then edge labels (-1 = deleted)
}

// Generate builds a data set per the Appendix I construction. The result is
// deterministic in cfg.Seed.
func Generate(cfg Config) (*Dataset, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	ds := &Dataset{Config: cfg, Col: db.New(cfg.Name)}

	elabels := make([]graph.ID, cfg.LE)
	for i := range elabels {
		elabels[i] = ds.Col.Dict.Intern(fmt.Sprintf("e%d", i))
	}

	numClusters := (cfg.NumGraphs + cfg.ClusterSize - 1) / cfg.ClusterSize
	var built []clusterMeta

	remaining := cfg.NumGraphs
	for ci := 0; ci < numClusters; ci++ {
		want := cfg.ClusterSize
		if want > remaining {
			want = remaining
		}
		tpl, center, err := ds.makeTemplate(rng, ci, elabels, built)
		if err != nil {
			return nil, err
		}
		built = append(built, clusterMeta{hist: labelHistogram(tpl), n: tpl.NumVertices()})
		ds.emitVariants(rng, tpl, center, ci, want, elabels)
		remaining -= want
	}

	// Query split: deterministic sample of ~QueryFraction indices.
	total := ds.Col.Len()
	numQ := int(math.Round(cfg.QueryFraction * float64(total)))
	if numQ < 1 {
		numQ = 1
	}
	perm := rng.Perm(total)
	isQuery := make([]bool, total)
	for _, i := range perm[:numQ] {
		isQuery[i] = true
	}
	for i := 0; i < total; i++ {
		if isQuery[i] {
			ds.Queries = append(ds.Queries, i)
		} else {
			ds.DBGraphs = append(ds.DBGraphs, i)
		}
	}
	return ds, nil
}

// clusterMeta records what later clusters must stay away from.
type clusterMeta struct {
	hist map[graph.ID]int
	n    int
}

// makeTemplate draws templates until one has a modification center and its
// vertex-label histogram clears the inter-cluster guard against every
// earlier cluster.
func (ds *Dataset) makeTemplate(rng *rand.Rand, ci int, elabels []graph.ID, built []clusterMeta) (*graph.Graph, int, error) {
	cfg := ds.Config
	// Guard slack: variants may relabel one vertex (the center) per graph,
	// which can erode a cross-pair label bound by at most 2.
	need := cfg.GuardTau + 3
	for attempt := 0; attempt <= exhaustAttempt+16; attempt++ {
		pool, weights := clusterLabelPool(rng, ds.Col.Dict, cfg.LV, cfg.PoolSize, ci, attempt)
		n := cfg.MinV + int(math.Pow(rng.Float64(), 1.6)*float64(cfg.MaxV-cfg.MinV+1))
		if n > cfg.MaxV {
			n = cfg.MaxV
		}
		d := genTemplate(rng, templateSpec{
			n:          n,
			extraPerV:  cfg.ExtraPerV,
			scaleFree:  cfg.ScaleFree,
			vlabelPool: pool,
			vlabelW:    weights,
			elabelPool: elabels,
		})
		dropEdgesForSparsity(rng, d, cfg.ConnectProb)
		boostCenterDegree(rng, d, cfg.ModSlots, elabels)
		tpl := d.graph()

		// Inter-cluster guard via the O(|LV|) histogram bound.
		hist := labelHistogram(tpl)
		ok := true
		for _, m := range built {
			if histogramLB(hist, n, m.hist, m.n) <= need {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		minSlots := 2
		center := findModificationCenter(tpl, minSlots, cfg.SigDepth)
		if center < 0 {
			if !forceDistinctSignatures(rng, tpl, maxDegreeVertex(n, tpl.Degree), cfg.SigDepth, pool) {
				continue
			}
			center = findModificationCenter(tpl, minSlots, cfg.SigDepth)
			if center < 0 {
				continue
			}
			// Relabelling may have eroded the histogram guard: re-check.
			hist = labelHistogram(tpl)
			ok = true
			for _, m := range built {
				if histogramLB(hist, n, m.hist, m.n) <= need {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
		}
		tpl.Name = fmt.Sprintf("%s-c%d-t", cfg.Name, ci)
		return tpl, center, nil
	}
	return nil, 0, fmt.Errorf("dataset %q: cannot place cluster %d with guard %d (alphabet too small?)", cfg.Name, ci, cfg.GuardTau)
}

// boostCenterDegree raises the maximum-degree vertex to `target` incident
// edges by attaching it to random non-adjacent vertices. Appendix I demands
// a modification center "of degree at least d" to realise edit distances up
// to d; uniform random graphs (Syn-2) rarely grow such hubs on their own.
func boostCenterDegree(rng *rand.Rand, d *draft, target int, elabels []graph.ID) {
	n := len(d.vlabels)
	if target > n-1 {
		target = n - 1
	}
	c := maxDegreeVertex(n, func(v int) int { return d.deg[v] })
	for tries := 0; d.deg[c] < target && tries < 20*n; tries++ {
		u := rng.Intn(n)
		if u == c || d.has(c, u) {
			continue
		}
		d.add(c, u, elabels[rng.Intn(len(elabels))])
	}
}

// maxDegreeVertex returns the lowest-indexed of the n vertices of highest
// degree.
func maxDegreeVertex(n int, degree func(v int) int) int {
	best := 0
	for v := 1; v < n; v++ {
		if degree(v) > degree(best) {
			best = v
		}
	}
	return best
}

// dropEdgesForSparsity removes spanning links with probability 1−p, which
// lets profiles reproduce average degrees below 2 (Fingerprint's d = 1.7)
// at the cost of connectivity — matching the disconnected polyline graphs
// of the real data set. It visits the edges in (U, V) order, the order
// the built graph lists them.
func dropEdgesForSparsity(rng *rand.Rand, d *draft, p float64) {
	if p >= 1 {
		return
	}
	slices.SortFunc(d.edges, func(a, b graph.Edge) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
	})
	ne := len(d.edges)
	kept := d.edges[:0]
	for _, e := range d.edges {
		if rng.Float64() < 1-p && ne > len(d.vlabels)/2 {
			ne--
			d.deg[e.U]--
			d.deg[e.V]--
			delete(d.pairs, pairKey(int(e.U), int(e.V)))
			continue
		}
		kept = append(kept, e)
	}
	d.edges = kept
}

// emitVariants clones the template `count` times, randomly editing the
// modification slots, and records each variant's slot vector for KnownGED.
func (ds *Dataset) emitVariants(rng *rand.Rand, tpl *graph.Graph, center, ci, count int, elabels []graph.ID) {
	cfg := ds.Config
	neighbors := tpl.Neighbors(center)
	numEdgeSlots := len(neighbors)
	if numEdgeSlots > cfg.ModSlots {
		numEdgeSlots = cfg.ModSlots
	}
	slotNeighbors := make([]int, numEdgeSlots)
	deletable := make([]bool, numEdgeSlots)
	for i := 0; i < numEdgeSlots; i++ {
		slotNeighbors[i] = int(neighbors[i].To)
		deletable[i] = tpl.Degree(int(neighbors[i].To)) >= 2
	}
	baseSlots := make([]int32, numEdgeSlots+1)
	baseSlots[0] = int32(tpl.VertexLabel(center))
	for i, u := range slotNeighbors {
		l, _ := tpl.EdgeLabel(center, u)
		baseSlots[i+1] = int32(l)
	}

	// A private pool of replacement center labels keeps center relabels
	// from colliding with the cluster guard (fresh labels shared by all
	// variants of this cluster).
	centerAlts := []graph.ID{
		ds.Col.Dict.Intern(fmt.Sprintf("c%d-a", ci)),
		ds.Col.Dict.Intern(fmt.Sprintf("c%d-b", ci)),
	}

	for vi := 0; vi < count; vi++ {
		g := tpl.Clone()
		g.Name = fmt.Sprintf("%s-c%d-v%d", cfg.Name, ci, vi)
		slots := append([]int32(nil), baseSlots...)
		if vi > 0 { // variant 0 is the unmodified template
			k := rng.Intn(len(slots) + 1)
			order := rng.Perm(len(slots))
			edgesLeft := tpl.Degree(center)
			for _, si := range order[:k] {
				if si == 0 {
					alt := centerAlts[rng.Intn(len(centerAlts))]
					g.RelabelVertex(center, alt)
					slots[0] = int32(alt)
					continue
				}
				u := slotNeighbors[si-1]
				if deletable[si-1] && edgesLeft > 1 && rng.Intn(3) == 0 {
					if err := g.RemoveEdge(center, u); err == nil {
						slots[si] = -1
						edgesLeft--
					}
					continue
				}
				cur := slots[si]
				alt := elabels[rng.Intn(len(elabels))]
				for int32(alt) == cur && len(elabels) > 1 {
					alt = elabels[rng.Intn(len(elabels))]
				}
				if err := g.RelabelEdge(center, u, alt); err == nil {
					slots[si] = int32(alt)
				}
			}
		}
		ds.Col.Add(g)
		ds.ClusterOf = append(ds.ClusterOf, ci)
		ds.slots = append(ds.slots, slots)
	}
}

// KnownGED returns the exact GED between collection members i and j when it
// is known (same cluster: the count of differing modification slots). For
// cross-cluster pairs it returns known = false; the construction guarantees
// their GED exceeds GuardTau.
func (ds *Dataset) KnownGED(i, j int) (ged int, known bool) {
	if ds.ClusterOf[i] != ds.ClusterOf[j] {
		return 0, false
	}
	si, sj := ds.slots[i], ds.slots[j]
	d := 0
	for k := range si {
		if si[k] != sj[k] {
			d++
		}
	}
	return d, true
}

// WithinTau is the ground-truth predicate of the similarity search problem:
// GED(i, j) ≤ tau. tau must not exceed GuardTau, the largest threshold the
// construction certifies.
func (ds *Dataset) WithinTau(i, j, tau int) bool {
	if tau > ds.GuardTau {
		panic(fmt.Sprintf("dataset %q: tau %d exceeds certified guard %d", ds.Name, tau, ds.GuardTau))
	}
	if d, known := ds.KnownGED(i, j); known {
		return d <= tau
	}
	return false
}

// TruthSet lists the database graphs (indexes into DBGraphs' namespace,
// i.e. collection indexes) whose GED to query index q is ≤ tau.
func (ds *Dataset) TruthSet(q, tau int) []int {
	var out []int
	for _, i := range ds.DBGraphs {
		if i != q && ds.WithinTau(q, i, tau) {
			out = append(out, i)
		}
	}
	return out
}

// WriteTruth emits the certified ground truth as text: one "i j ged" line
// per intra-cluster pair; a header records the guard below which all
// unlisted pairs are certified to lie ("GED > GuardTau").
func (ds *Dataset) WriteTruth(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# pairs with known GED; all unlisted pairs have GED > %d\n", ds.GuardTau)
	for i := 0; i < ds.Col.Len(); i++ {
		for j := i + 1; j < ds.Col.Len(); j++ {
			if d, known := ds.KnownGED(i, j); known {
				fmt.Fprintf(bw, "%d %d %d\n", i, j, d)
			}
		}
	}
	return bw.Flush()
}
