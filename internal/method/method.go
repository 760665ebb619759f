// Package method is the pluggable scorer registry of the search stack.
// Each similarity-search algorithm (the paper's GBDA family, the three
// competitors, exact A* and the hybrid filter-verify mode) implements the
// Scorer interface and registers itself under a stable numeric ID, so the
// scan engine and its consumers (Search, SearchTopK, SearchBatch) are
// written once against the interface instead of a per-method switch.
//
// A Scorer's lifecycle is Prepare-once, Score-many: Prepare validates the
// database state (priors fitted, τ̂ within the model ceiling) and captures
// per-search state; Score is then called concurrently from the engine's
// workers, once per candidate graph, and must be safe for concurrent use.
// A batch prepares once and scans once per query, so it calls Score once
// per (query, candidate) pair like any other search.
package method

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"gsim/internal/branch"
	"gsim/internal/core"
	"gsim/internal/db"
	"gsim/internal/graph"
)

// ID names a registered scorer. The values mirror the public gsim.Method
// constants, which are defined as conversions of these.
type ID int

const (
	GBDA ID = iota
	GBDAV1
	GBDAV2
	LSAP
	GreedySort
	Seriation
	Exact
	Hybrid
)

// ErrNoPriors is returned by Prepare of the GBDA family before the offline
// prior-fitting stage has run. gsim.ErrNoPriors aliases it.
var ErrNoPriors = errors.New("gsim: BuildPriors must run before GBDA search")

// ErrBadOptions is the sentinel wrapped by every option-validation
// failure (unknown method, incompatible flags, τ̂ beyond the prior
// ceiling): errors.Is(err, ErrBadOptions) distinguishes "the request was
// malformed" from "the database is not ready" (ErrNoPriors) and from
// internal failures — the split a serving layer maps to HTTP 400 / 409 /
// 500. gsim.ErrBadOptions aliases it.
var ErrBadOptions = errors.New("gsim: invalid search options")

// ErrTooLarge reports that a baseline method refused a pair whose cost
// matrix (or spectral representation) would exceed the memory wall the
// paper measured on its 128 GB machine. gsim.ErrTooLarge aliases it.
var ErrTooLarge = errors.New("gsim: graph too large for this baseline (raise BaselineMaxVertices)")

// DB is the read-only view of a database a Scorer prepares against. It is
// storage-layer agnostic: the gsim layer builds it from whatever snapshot
// a search prepared (the sharded store's consistent cut), exposing the
// scanned graphs through accessor functions instead of a concrete
// collection — Ordered is lazy because only rank-sampling scorers
// (GBDA-V1) pay for an ID-ordered view.
type DB struct {
	// ActiveN is the number of graphs the search scans.
	ActiveN int
	// Ordered returns the scanned entries in ascending ID (insertion)
	// order. Implementations memoise; callers must not mutate.
	Ordered func() []*db.Entry
	// Sizes lists the distinct vertex counts of stored graphs, ascending —
	// the sizes a posterior table prebuilds rows for. It is called only
	// when a table is first built, not at every Prepare.
	Sizes func() []int
	// BranchUniverse is read by no scorer. It stays because
	// benchmark/ladder.go sets it and a change there is a
	// benchmark-archetype PR of its own (ROADMAP item 5(e)).
	BranchUniverse func() int
	// Offline artifacts; WS == nil before BuildPriors.
	WS       *core.Workspace
	GBDPrior *core.GBDPrior
	TauMax   int
}

// HasPriors reports whether the offline stage has run.
func (d *DB) HasPriors() bool { return d.WS != nil }

// AvgActiveSize returns the rounded average vertex count over a sample of
// alpha scanned graphs — the |V'1| surrogate of the GBDA-V1 variant. The
// sample is drawn by rank over the ID-ordered scan set, so it is
// deterministic for a given seed and scan set regardless of how storage
// is partitioned.
func (d *DB) AvgActiveSize(alpha int, seed int64) int {
	n := d.ActiveN
	if n == 0 {
		return 1
	}
	if alpha <= 0 || alpha > n {
		alpha = n
	}
	entries := d.Ordered()
	rng := rand.New(rand.NewSource(seed))
	var sum int
	for i := 0; i < alpha; i++ {
		sum += entries[rng.Intn(n)].G.NumVertices()
	}
	v := (sum + alpha/2) / alpha
	if v < 1 {
		v = 1
	}
	return v
}

// Options carries the per-search knobs a Scorer may consume. The gsim layer
// fills it from SearchOptions with defaults already applied.
type Options struct {
	Tau                 int
	Gamma               float64
	V1Sample            int
	V2Weight            float64
	BaselineMaxVertices int
	ExactBudget         int
	HybridVerifyMax     int
	// CollectAll keeps every scanned graph with its score instead of
	// applying the τ̂/γ decision. Only meaningful for scorers whose
	// CollectAll trait is true.
	CollectAll bool
}

// Query is a prepared query graph with its branch multiset in interned
// form: IDs resolved through the database's branch dictionary, with
// ephemeral overlay IDs for branches the database has never seen (see
// db.BranchDict.ResolveMultiset). Branches holds one ID per vertex of G,
// so its length is the graph's size.
type Query struct {
	G        *graph.Graph
	Branches branch.IDs
}

// Scorer decides, for one candidate graph, whether it belongs in the
// result and with what score.
type Scorer interface {
	// Prepare validates database state and captures per-search state.
	Prepare(d *DB, opt Options) error
	// Score is called concurrently by the scan engine, once per entry.
	Score(q *Query, e *db.Entry) (keep bool, score float64, err error)
}

// SizeWindower is the optional capability behind the scan's size column: a
// scorer whose score is exactly 0 for every entry whose size (its branch
// count, one per vertex) lies outside a window it can compute from the
// query alone. The scan then decides those entries from a column of
// sizes — a zero score, kept only where a zero score is — and calls Score
// only inside the window. lo > hi is an empty window: nothing stored can
// score above 0.
type SizeWindower interface {
	Scorer
	SizeWindow(q *Query) (lo, hi int)
}

// Traits are the static properties of a registered scorer that the search
// consumers dispatch on (instead of switching on method constants).
type Traits struct {
	// Name as rendered in the paper's figures.
	Name string
	// Aliases accepted by ParseName (lower-case).
	Aliases []string
	// NeedsPriors marks the GBDA family: Prepare fails with ErrNoPriors
	// until BuildPriors has run.
	NeedsPriors bool
	// CollectAll reports whether scores form a complete scored scan.
	// Exact and Hybrid resolve scores only up to the threshold, so they
	// cannot serve CollectAll consumers.
	CollectAll bool
	// Ascending orders ranking consumers: true means lower score = more
	// similar (distance estimators); false means higher score = more
	// similar (posteriors).
	Ascending bool
}

// Rankable reports whether SearchTopK can rank by this scorer's scores;
// it is equivalent to supporting a complete scored scan.
func (t Traits) Rankable() bool { return t.CollectAll }

// Info bundles a scorer factory with its traits.
type Info struct {
	Traits
	New func() Scorer
}

var registry = map[ID]Info{}

// Register records a scorer under id. Implementations self-register from
// init; registering the same id twice panics.
func Register(id ID, info Info) {
	if _, dup := registry[id]; dup {
		panic(fmt.Sprintf("method: duplicate registration of ID %d (%s)", id, info.Name))
	}
	registry[id] = info
}

// Lookup returns the registration for id.
func Lookup(id ID) (Info, bool) {
	info, ok := registry[id]
	return info, ok
}

// Name returns the registered name of id, or "Method(n)" when unknown.
func Name(id ID) string {
	if info, ok := registry[id]; ok {
		return info.Name
	}
	return fmt.Sprintf("Method(%d)", int(id))
}

// ParseName resolves a case-insensitive method name or alias.
func ParseName(s string) (ID, bool) {
	s = strings.ToLower(s)
	for id, info := range registry {
		if strings.ToLower(info.Name) == s {
			return id, true
		}
		for _, a := range info.Aliases {
			if a == s {
				return id, true
			}
		}
	}
	return 0, false
}

// IDs lists every registered scorer in ascending ID order.
func IDs() []ID {
	out := make([]ID, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
