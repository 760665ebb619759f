package method

import (
	"fmt"
	"math"
	"testing"

	"gsim/internal/branch"
	"gsim/internal/core"
	"gsim/internal/dataset"
	"gsim/internal/db"
	"gsim/internal/ged"
	"gsim/internal/graph"
)

// The posterior scorers intersect through branch.IntersectAtLeastIDs and
// stop once the pair is past the table's 2τ̂ support. These tests hold them
// to the unbounded definition: every (keep, score) — the scores of
// discarded entries included — must equal a reference that counts the
// whole intersection with branch.IntersectSizeIDs and looks it up in the
// same PosteriorTable, sizes taken from the graphs as the scorers did
// before the bound existed.

// equivFixture is a known-GED cluster corpus stored under its own branch
// dictionary, so the held-out queries carry branches the store has never
// seen, plus crafted queries at the size extremes.
type equivFixture struct {
	mdb     *DB
	entries []*db.Entry
	queries []*Query
}

func newEquivFixture(t *testing.T) *equivFixture {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{
		Name: "bounded-equiv", NumGraphs: 150, QueryFraction: 0.2,
		MinV: 8, MaxV: 20, ExtraPerV: 0.3, ScaleFree: true,
		LV: 30, LE: 3, PoolSize: 5, ClusterSize: 10, ModSlots: 6,
		GuardTau: 5, Seed: 102,
	})
	if err != nil {
		t.Fatal(err)
	}
	stored := db.New("stored")
	stored.Dict = ds.Col.Dict // graphs stay comparable by label ID
	for _, i := range ds.DBGraphs {
		stored.Add(ds.Col.Graph(i))
	}
	fx := &equivFixture{entries: stored.Entries()}
	unseen := 0
	addQuery := func(g *graph.Graph) {
		ids := stored.BranchDict().ResolveMultiset(branch.MultisetOf(g))
		if len(ids) > 0 && ids[len(ids)-1] >= db.EphemeralBranchBase {
			unseen++
		}
		fx.queries = append(fx.queries, &Query{G: g, Branches: ids})
	}
	for _, i := range ds.Queries {
		addQuery(ds.Col.Graph(i))
	}
	if unseen == 0 {
		t.Fatal("fixture has no query with a branch the store has not seen")
	}
	// Size-skewed pairs: two disjoint copies of a stored graph (2× its
	// size, every branch shared) and its first three vertices alone.
	g := stored.Graph(0)
	addQuery(disjointCopies(g, g.NumVertices(), 2))
	addQuery(disjointCopies(g, 3, 1))

	prior, err := core.FitGBDPrior(stored.SamplePairGBDs(3000, 1), 3)
	if err != nil {
		t.Fatal(err)
	}
	st := stored.Stats()
	sizes := db.NewTally()
	for _, e := range fx.entries {
		sizes.Add(e.Labels)
	}
	fx.mdb = &DB{
		ActiveN:  len(fx.entries),
		Ordered:  func() []*db.Entry { return fx.entries },
		Sizes:    sizes.Sizes,
		WS:       core.NewWorkspace(core.Params{LV: st.LV, LE: st.LE, TauMax: 5}),
		GBDPrior: prior,
		TauMax:   5,
	}
	return fx
}

// disjointCopies returns the given number of side-by-side copies of the subgraph g
// induces on its first n vertices.
func disjointCopies(g *graph.Graph, n, copies int) *graph.Graph {
	out := graph.New(n * copies)
	for c := 0; c < copies; c++ {
		for v := 0; v < n; v++ {
			out.AddVertex(g.VertexLabel(v))
		}
		for _, e := range g.Edges() {
			if u, v := int(e.U), int(e.V); u < n && v < n {
				out.MustAddEdge(c*n+u, c*n+v, e.Label)
			}
		}
	}
	return out
}

// reference is the unbounded scoring the scorers replaced.
type reference struct {
	id    ID
	opt   Options
	table *core.PosteriorTable
}

// phi returns the observation the pair enters the table with.
func (r reference) phi(q *Query, e *db.Entry) (vmax, phi int) {
	vmax = maxInt(q.G.NumVertices(), e.G.NumVertices())
	inter := branch.IntersectSizeIDs(q.Branches, e.Branches)
	if r.id == GBDAV2 {
		return vmax, core.RoundVGBD(vmax, inter, r.opt.V2Weight)
	}
	return vmax, branch.GBDOf(len(q.Branches), e.Branches.Len(), inter)
}

func (r reference) score(q *Query, e *db.Entry) (bool, float64) {
	vmax, phi := r.phi(q, e)
	post := r.table.Posterior(vmax, phi)
	if r.id != Hybrid {
		return r.opt.CollectAll || post >= r.opt.Gamma, post
	}
	if post < r.opt.Gamma {
		return false, post
	}
	if vmax > r.opt.HybridVerifyMax {
		return true, post
	}
	res, err := ged.Compute(q.G, e.G.Unpack(), ged.Options{MaxExpansions: r.opt.ExactBudget, Limit: r.opt.Tau})
	if err == ged.ErrOverLimit {
		return false, float64(res.LowerBound)
	}
	if err != nil {
		return true, post
	}
	return res.Distance <= r.opt.Tau, float64(res.Distance)
}

// posteriorTable reaches the table a prepared scorer looks up in.
func posteriorTable(s Scorer) *core.PosteriorTable {
	if h, ok := s.(*hybridScorer); ok {
		return h.table.get()
	}
	return s.(*gbdaScorer).table.get()
}

func TestBoundedScorersMatchUnbounded(t *testing.T) {
	fx := newEquivFixture(t)
	type variant struct {
		id ID
		w  float64
	}
	// The V2 weight is client-supplied: the two absurd ones hold the bound
	// to the reference where its float estimate would overflow an int.
	variants := []variant{{GBDA, 0}, {GBDAV1, 0}, {GBDAV2, 0.3}, {GBDAV2, 0.5}, {GBDAV2, 1},
		{GBDAV2, 1e-19}, {GBDAV2, 1e12}, {Hybrid, 0}}
	for _, v := range variants {
		for _, tau := range []int{1, 3, 5} {
			for _, collectAll := range []bool{false, true} {
				if v.id == Hybrid && collectAll {
					continue // Hybrid has no complete scored scan
				}
				name := fmt.Sprintf("%s/w=%g/tau=%d/collectAll=%v", Name(v.id), v.w, tau, collectAll)
				t.Run(name, func(t *testing.T) {
					opt := Options{
						Tau: tau, Gamma: 0.4, V1Sample: 50, V2Weight: v.w,
						ExactBudget: 20000, HybridVerifyMax: 12, CollectAll: collectAll,
					}
					info, _ := Lookup(v.id)
					s := info.New()
					if err := s.Prepare(fx.mdb, opt); err != nil {
						t.Fatal(err)
					}
					ref := reference{id: v.id, opt: opt, table: posteriorTable(s)}
					sup := core.Support(tau)

					// Every pair, with a census of what the corpus can see:
					// pairs on the last supported ϕ and one past it, pairs
					// the bounded merge gives up on, and both decisions.
					var atEdge, pastEdge, aborted, kept, dropped int
					for qi, q := range fx.queries {
						for _, e := range fx.entries {
							wantKeep, wantScore := ref.score(q, e)
							keep, score, err := s.Score(q, e)
							if err != nil {
								t.Fatal(err)
							}
							_, phi := ref.phi(q, e)
							if keep != wantKeep || score != wantScore {
								t.Fatalf("query %d × entry %d (ϕ=%d): Score = (%v, %v), unbounded reference (%v, %v)",
									qi, e.ID, phi, keep, score, wantKeep, wantScore)
							}
							switch {
							case phi == sup:
								atEdge++
							case phi == sup+1:
								pastEdge++
							}
							if phi > sup {
								aborted++
							}
							if keep {
								kept++
							} else {
								dropped++
							}
						}
					}
					if aborted == 0 {
						t.Fatal("no pair is past the 2τ̂ support: the bound was never exercised")
					}
					// A weighted observation can put every pair of this
					// corpus on one side of 2τ̂; the GBD variants must
					// straddle it.
					if v.id != GBDAV2 {
						if atEdge == 0 || pastEdge == 0 {
							t.Fatalf("corpus has %d pairs at ϕ = 2τ̂ and %d at 2τ̂+1; need both", atEdge, pastEdge)
						}
						if kept == 0 || (dropped == 0 && !collectAll) {
							t.Fatalf("degenerate decision split: %d kept, %d dropped", kept, dropped)
						}
					}
				})
			}
		}
	}
}

// TestNeedIsTight pins the bound itself. A need that is one too low
// changes no score — the merge just runs longer than it has to — so the
// equivalence test cannot see it; this one does: need must be the
// smallest intersection whose observation the table still supports, or
// vmax+1 when no intersection a pair of that size can have is. The V2
// weights run from denormal to +Inf and NaN: needVGBD must return — the
// float solve once spun forever below w ≈ 1e-17 — and stay exact.
func TestNeedIsTight(t *testing.T) {
	weights := []float64{0.3, 0.5, 1, 1.7, 1e-17, 1e-19, math.SmallestNonzeroFloat64,
		1e12, math.MaxFloat64, math.Inf(1), math.NaN()}
	for _, tau := range []int{1, 3, 5} {
		for vmax := 0; vmax <= 128; vmax++ {
			check := func(name string, need int, phi func(inter int) int) {
				t.Helper()
				if need > vmax+1 {
					t.Fatalf("%s vmax=%d τ̂=%d: need %d > vmax+1", name, vmax, tau, need)
				}
				if got := phi(need); need <= vmax && got > core.Support(tau) {
					t.Fatalf("%s vmax=%d τ̂=%d: need %d observes ϕ=%d > 2τ̂", name, vmax, tau, need, got)
				}
				if got := phi(need - 1); need > 0 && got <= core.Support(tau) {
					t.Fatalf("%s vmax=%d τ̂=%d: need %d is not minimal, %d observes ϕ=%d", name, vmax, tau, need, need-1, got)
				}
			}
			check("GBD", needGBD(vmax, tau), func(inter int) int { return branch.GBDOf(vmax, vmax, inter) })
			for _, w := range weights {
				check(fmt.Sprintf("VGBD w=%g", w), needVGBD(vmax, tau, w),
					func(inter int) int { return core.RoundVGBD(vmax, inter, w) })
			}
		}
	}
}
