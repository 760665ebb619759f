package gsim

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gsim/internal/db"
	"gsim/internal/engine"
	"gsim/internal/index"
	"gsim/internal/method"
	"gsim/internal/shard"
	"gsim/internal/telemetry"
)

// Method selects the similarity-search algorithm. Each method is a
// self-registering scorer in internal/method; the constants mirror the
// registry IDs.
type Method int

const (
	// GBDA is the paper's Algorithm 1: the probabilistic GED-from-GBD
	// posterior thresholded at γ.
	GBDA = Method(method.GBDA)
	// GBDAV1 replaces the pair size |V'1| with the average vertex count
	// of an α-graph sample (Section VII-D).
	GBDAV1 = Method(method.GBDAV1)
	// GBDAV2 observes the weighted VGBD of Eq. (26) instead of GBD.
	GBDAV2 = Method(method.GBDAV2)
	// LSAP filters by the exact branch-LSAP lower bound of Riesen &
	// Bunke [11]: complete recall, O(n³) per pair, O(n²) memory.
	LSAP = Method(method.LSAP)
	// GreedySort is Greedy-Sort-GED [12]: a greedy O(n² log n²) LSAP
	// whose induced edit path estimates GED (no bound).
	GreedySort = Method(method.GreedySort)
	// Seriation is the spectral baseline of Robles-Kelly & Hancock [13].
	Seriation = Method(method.Seriation)
	// Exact verifies every pair with A* GED — NP-hard, tiny graphs only.
	Exact = Method(method.Exact)
	// Hybrid runs the GBDA filter and then verifies small candidates
	// with exact A*, the filter-verify extension of Section VIII-A.
	Hybrid = Method(method.Hybrid)
)

// String names the method as in the paper's figures.
func (m Method) String() string { return method.Name(method.ID(m)) }

// NeedsPriors reports whether the method requires BuildPriors to have run
// (the GBDA family and Hybrid).
func (m Method) NeedsPriors() bool {
	info, ok := method.Lookup(method.ID(m))
	return ok && info.NeedsPriors
}

// ParseMethod resolves a method by its case-insensitive registered name
// ("GBDA", "gbda-v1", "lsap", ...) or alias ("v1", "greedy", ...).
func ParseMethod(s string) (Method, error) {
	if id, ok := method.ParseName(s); ok {
		return Method(id), nil
	}
	return 0, fmt.Errorf("gsim: unknown method %q", s)
}

// Methods lists every registered search method.
func Methods() []Method {
	ids := method.IDs()
	out := make([]Method, len(ids))
	for i, id := range ids {
		out[i] = Method(id)
	}
	return out
}

// SearchOptions parameterises Search. The zero value runs plain GBDA with
// τ̂ = 3, γ = 0.9.
type SearchOptions struct {
	Method Method
	// Tau is the similarity threshold τ̂ of the problem statement.
	Tau int
	// Gamma is the probability threshold γ of Algorithm 1 (GBDA family
	// and Hybrid only).
	Gamma float64
	// Workers bounds scan parallelism (≤ 0: GOMAXPROCS).
	Workers int
	// V1Sample is the α of GBDA-V1 (default 50).
	V1Sample int
	// V2Weight is the w of GBDA-V2 (default 0.5).
	V2Weight float64
	// BaselineMaxVertices guards the quadratic-memory baselines: pairs
	// larger than this abort with ErrTooLarge, reproducing the paper's
	// observation that the competitors exhaust 128 GB beyond 20K
	// vertices (default 20000).
	BaselineMaxVertices int
	// ExactBudget caps A* expansions per pair in Exact/Hybrid modes
	// (default 2e6).
	ExactBudget int
	// HybridVerifyMax bounds the pair size Hybrid verifies exactly;
	// larger candidates keep their GBDA decision (default 12, the A*
	// feasibility limit the paper reports).
	HybridVerifyMax int
	// CollectAll returns every scanned graph with its score instead of
	// applying the τ̂/γ decision, leaving thresholding to the caller.
	// The experiment harness uses this to sweep thresholds over one
	// scored scan. Not supported by the Exact and Hybrid methods, whose
	// scores are only resolved up to the threshold.
	CollectAll bool
	// Prefilter applies the layered admissible index (size, label and
	// branch lower bounds; see internal/index) before the per-pair
	// method. Pruned graphs provably violate GED ≤ τ̂, so recall is
	// untouched; for the probabilistic GBDA family the filter can only
	// remove false positives. Incompatible with CollectAll (pruned
	// graphs have no score).
	Prefilter bool
	// Trace enables the fine-grained stage split for this search: the
	// scan's prefilter and scoring phases are timed separately — three
	// clock samples per claimed range (per shard view the range spans),
	// whose filter pass runs to the end before its scoring pass starts —
	// and reported in Result.Stages alongside the coarse stages, which
	// are recorded for every search from a handful of clock reads per
	// request. Meant for diagnosing individual queries (the serving
	// layer's ?debug=trace); a traced scan executes the same loop as an
	// untraced one.
	Trace bool
}

func (o SearchOptions) withDefaults() SearchOptions {
	if o.Tau <= 0 {
		o.Tau = 3
	}
	if o.Gamma <= 0 {
		o.Gamma = 0.9
	}
	if o.V1Sample <= 0 {
		o.V1Sample = 50
	}
	if o.V2Weight <= 0 {
		o.V2Weight = 0.5
	}
	if o.BaselineMaxVertices <= 0 {
		o.BaselineMaxVertices = 20000
	}
	if o.ExactBudget <= 0 {
		o.ExactBudget = 2_000_000
	}
	if o.HybridVerifyMax <= 0 {
		o.HybridVerifyMax = 12
	}
	return o
}

// methodOptions projects the scorer-visible knobs (defaults applied).
func (o SearchOptions) methodOptions() method.Options {
	return method.Options{
		Tau:                 o.Tau,
		Gamma:               o.Gamma,
		V1Sample:            o.V1Sample,
		V2Weight:            o.V2Weight,
		BaselineMaxVertices: o.BaselineMaxVertices,
		ExactBudget:         o.ExactBudget,
		HybridVerifyMax:     o.HybridVerifyMax,
		CollectAll:          o.CollectAll,
	}
}

// ErrTooLarge reports that a baseline method refused a pair whose cost
// matrix (or spectral representation) would exceed the memory wall the
// paper measured on its 128 GB machine.
var ErrTooLarge = method.ErrTooLarge

// ErrBadOptions is the sentinel every option-validation failure wraps:
// unknown method, incompatible flag combinations (CollectAll with
// Prefilter or an unsupported method, a non-rankable TopK method), or a
// τ̂ beyond the fitted prior ceiling. errors.Is(err, ErrBadOptions)
// separates caller mistakes from database state errors (ErrNoPriors) —
// the serving layer maps the former to HTTP 400 and the latter to 409.
var ErrBadOptions = method.ErrBadOptions

// Match is one search hit.
type Match struct {
	// Index is the stable graph ID of the matched graph — the value Store
	// returned and Delete/Update accept. For a database that never
	// deletes, IDs are dense insertion indexes (the pre-shard collection
	// index).
	Index int
	// Name is the matched graph's name.
	Name string
	// Score is the GBDA posterior Φ for the GBDA family and Hybrid, and
	// the estimated (or bounded) edit distance for the baselines.
	Score float64
}

// Result is the outcome of one query.
type Result struct {
	Method  Method
	Matches []Match
	// Scanned counts database graphs decided: scored, pruned, or ruled
	// out unread by the branch postings (Stages.Visited counts the ones
	// read). An early-stopped stream may count fewer.
	Scanned int
	// Elapsed is the wall-clock query time (the paper's Figures 7–9).
	Elapsed time.Duration
	// Epoch is the database version (see Database.Epoch) of the snapshot
	// the search scanned — the version a cached copy of this result is
	// valid for.
	Epoch uint64
	// Stages is the per-stage timing breakdown of this query. The
	// coarse spans (prepare, cut, scan, merge) are always populated;
	// the prefilter/score split only with SearchOptions.Trace.
	Stages StageStats
}

// StageStats breaks one search down by pipeline stage. All durations
// are nanoseconds. For batch searches the prepare/cut spans are the
// batch's shared preparation (reported identically on every Result); the
// other fields are the query's own.
type StageStats struct {
	// PrepareNS covers validation, the consistent cut and scorer
	// preparation (CutNS is the cut sub-span within it).
	PrepareNS int64
	CutNS     int64
	// ScanNS is the parallel scan's wall time: prefilter plus scoring,
	// as executed by the engine worker pool.
	ScanNS  int64
	MergeNS int64
	// PrefilterNS and ScoreNS split the scan's work by phase; only
	// recorded when Traced (they are summed CPU time across workers,
	// so they can exceed ScanNS wall time on multi-core scans). An
	// unfiltered scan's size-window pass counts as scoring: it takes
	// the scorer's own decision from a column.
	PrefilterNS int64
	ScoreNS     int64
	// Pruned counts entries the admissible prefilter discarded before
	// scoring.
	Pruned int
	// Visited counts the entries whose columns or entry the scan read:
	// the candidates the shards' branch postings named, or every entry
	// when the search has no shared-branch bound (a method without a
	// size window, or a query too small for one). The rest of Scanned
	// was decided without being read.
	Visited int
	// Traced reports whether the prefilter/score split above was
	// recorded.
	Traced bool
}

// Indexes returns the matched collection indexes, sorted ascending.
func (r *Result) Indexes() []int {
	out := make([]int, len(r.Matches))
	for i, m := range r.Matches {
		out[i] = m.Index
	}
	sort.Ints(out)
	return out
}

// preparedSearch is a validated search ready to run over any number of
// queries: the scorer is prepared and a consistent cut of per-shard
// snapshots taken (with prefilter columns when requested). It is both the
// amortisation unit behind Search, SearchStream, SearchTopK and
// SearchBatch and the isolation unit of the database's concurrency model —
// the scan reads only this cut, so mutations committed after prepare never
// reach an in-flight search.
//
// The cut is the gather side of scatter-gather: each shard's immutable
// view — entries with their id, size and signature columns — is scanned
// in place, in its own span of positions (see Database.projection), and
// matches are ordered by stable graph ID, which reproduces the pre-shard
// result order exactly.
type preparedSearch struct {
	opt    SearchOptions
	info   method.Info
	scorer method.Scorer
	proj   *projection    // the cut the scan reads
	bdict  *db.BranchDict // branch dictionary queries resolve against (IDs are never reused, so resolving after prepare can only miss deleted entries, never mis-match)
	epoch  uint64         // database epoch the cut corresponds to

	// Telemetry plumbing: the database's stage histograms, the store's
	// per-shard counters and the prepare/cut spans this preparation cost.
	tele          *telemetry.SearchMetrics
	stele         *telemetry.StoreMetrics
	prepNS, cutNS int64

	orderedOnce sync.Once
	orderedSet  []*db.Entry // the cut in ID order; built on demand
}

// traceAcc accumulates one scan's trace state: the scan wall span, the
// pruned and visited counts and, with deep tracing, the prefilter/score
// split. The atomics are shared by every worker of the scan, so one add
// costs a cache-line transfer whenever another worker added last — on a
// scan that prunes 99.97% of its entries, more than the pruning itself.
// Workers therefore count privately and fold their counts in here once
// per claimed range.
type traceAcc struct {
	deep        bool
	scanNS      int64 // written once by the engine's Observe hook
	pruned      atomic.Int64
	visited     atomic.Int64
	prefilterNS atomic.Int64 // deep only: summed across workers
	scoreNS     atomic.Int64 // deep only
}

// pruneTally is one scan worker's private count of prefilter discards,
// in total and by shard — the view the discarded slots sit in.
type pruneTally struct {
	shards  []telemetry.ShardCounters
	total   int
	byShard []int
}

func (ps *preparedSearch) newTally() pruneTally {
	return pruneTally{shards: ps.stele.Shards, byShard: make([]int, len(ps.proj.views))}
}

// discard counts n slots of view as pruned once.
func (t *pruneTally) discard(view, n int) {
	t.total += n
	t.byShard[view] += n
}

// publish folds the tally into the scan's and the shards' counters and
// zeroes it; runners call it once per range.
func (t *pruneTally) publish(tr *traceAcc) {
	if t.total == 0 {
		return
	}
	tr.pruned.Add(int64(t.total))
	t.total = 0
	for i, n := range t.byShard {
		if n != 0 {
			t.shards[i].Pruned.Add(uint64(n))
			t.byShard[i] = 0
		}
	}
}

// record folds one completed scan into the database's metric group and
// returns the query's stage breakdown; mergeNS is the post-scan ordering
// span.
func (ps *preparedSearch) record(tr *traceAcc, scanned, matched int, mergeNS int64) StageStats {
	t := ps.tele
	pruned, visited := tr.pruned.Load(), tr.visited.Load()
	if t != nil {
		t.Searches.Add(1)
		t.Scanned.Add(uint64(scanned))
		t.Pruned.Add(uint64(pruned))
		t.Visited.Add(uint64(visited))
		t.Matched.Add(uint64(matched))
		t.Stage[telemetry.StageScan].RecordNS(tr.scanNS)
		t.Stage[telemetry.StageMerge].RecordNS(mergeNS)
		if tr.deep {
			t.Stage[telemetry.StagePrefilter].RecordNS(tr.prefilterNS.Load())
			t.Stage[telemetry.StageScore].RecordNS(tr.scoreNS.Load())
		}
	}
	// Attribute per-shard scanned counts from the views' spans — O(shards)
	// once per scan instead of one atomic per entry. Only exact for
	// completed scans; early-stopped ones are skipped rather than guessed.
	if p := ps.proj; scanned == p.len() {
		for i := range p.views {
			ps.stele.Shards[i].Scanned.Add(uint64(p.starts[i+1] - p.starts[i]))
		}
	}
	return StageStats{
		PrepareNS:   ps.prepNS,
		CutNS:       ps.cutNS,
		ScanNS:      tr.scanNS,
		MergeNS:     mergeNS,
		PrefilterNS: tr.prefilterNS.Load(),
		ScoreNS:     tr.scoreNS.Load(),
		Pruned:      int(pruned),
		Visited:     int(visited),
		Traced:      tr.deep,
	}
}

// prepare validates opt against the database state, takes a consistent
// cut of the sharded store and readies a scorer. It holds the database
// read lock (which excludes prior refits, not per-shard ingest) while
// preparing; the scan itself runs lock-free against the cut.
func (d *Database) prepare(opt SearchOptions) (*preparedSearch, error) {
	start := time.Now()
	opt = opt.withDefaults()
	info, ok := method.Lookup(method.ID(opt.Method))
	if !ok {
		return nil, fmt.Errorf("%w: unknown method %v", ErrBadOptions, opt.Method)
	}
	if opt.CollectAll && !info.CollectAll {
		return nil, fmt.Errorf("%w: CollectAll is not supported by the %v method", ErrBadOptions, opt.Method)
	}
	if opt.CollectAll && opt.Prefilter {
		return nil, fmt.Errorf("%w: CollectAll and Prefilter are mutually exclusive", ErrBadOptions)
	}
	scorer := info.New()
	d.mu.RLock()
	defer d.mu.RUnlock()
	cutStart := time.Now()
	proj := d.projection()
	cutNS := int64(time.Since(cutStart))
	ps := &preparedSearch{
		opt:    opt,
		info:   info,
		scorer: scorer,
		proj:   proj,
		bdict:  d.store.BranchDict(),
		epoch:  d.epoch + proj.epoch,
		tele:   &d.tele,
		stele:  d.store.Telemetry(),
		cutNS:  cutNS,
	}
	mdb := &method.DB{
		ActiveN:  proj.len(),
		Ordered:  ps.ordered,
		Sizes:    d.store.DistinctSizes,
		WS:       d.ws,
		GBDPrior: d.gbdPrior,
		TauMax:   d.tauMax,
	}
	if err := scorer.Prepare(mdb, opt.methodOptions()); err != nil {
		return nil, err
	}
	ps.prepNS = int64(time.Since(start))
	d.tele.Stage[telemetry.StagePrepare].RecordNS(ps.prepNS)
	d.tele.Stage[telemetry.StageCut].RecordNS(ps.cutNS)
	return ps, nil
}

// projection returns the scan's view of a consistent cut of the store,
// memoised per store epoch and postings generation: the shards' own views
// plus their prefix sums — O(shards) to build, nothing per position.
// apMu serialises rebuilds against each other.
func (d *Database) projection() *projection {
	d.apMu.Lock()
	defer d.apMu.Unlock()
	gen := d.store.PostingsGen()
	if p := d.proj; p != nil && p.epoch == d.store.Epoch() && p.postGen == gen {
		// Equal epoch means no shard mutated since the cached cut was
		// taken, so its slices are the current state; an equal postings
		// generation, that no shard has installed fresher lists.
		return p
	}
	views, epoch := d.store.Views(true)
	p := &projection{epoch: epoch, postGen: gen, views: views, starts: make([]int, len(views)+1)}
	for i, v := range views {
		p.starts[i+1] = p.starts[i] + len(v.Entries)
	}
	d.proj = p
	return p
}

// ordered returns the cut in ascending graph ID — the output order —
// memoised because only rank-sampling scorer preparation (GBDA-V1) needs
// it.
func (ps *preparedSearch) ordered() []*db.Entry {
	ps.orderedOnce.Do(func() { ps.orderedSet = shard.OrderViews(ps.proj.views) })
	return ps.orderedSet
}

// stream scans the cut for one query, feeding every kept match to emit
// (serialised, position-tagged, unordered) and accumulating trace state
// into tr (required). admit, when non-nil, is a consumer's lock-free veto
// over kept entries (top-K's "cannot enter the heap"): an entry it refuses
// is scanned and scored but never reaches emit. It returns the number of
// graphs decided.
func (ps *preparedSearch) stream(ctx context.Context, q *Query, tr *traceAcc, admit func(index int, score float64) bool, emit func(pos int, m Match) bool) (int, error) {
	// Resolve the query's key-form multiset into interned IDs once per
	// scan. Branch IDs are never reused (deletes retire them), so a
	// resolution taken at-or-after prepare can never mis-match a snapshot
	// entry; unknown keys get ephemeral IDs that match nothing — exactly
	// the key semantics.
	qs := &queryScan{
		ps:    ps,
		tr:    tr,
		mq:    method.Query{G: q.g, Branches: ps.bdict.ResolveMultiset(q.branches)},
		admit: admit,
		winHi: math.MaxInt,
	}
	// need is what a graph must have to be worth reading. A prefiltered
	// scan prunes a graph sharing fewer than |Vq| − 2τ̂ branches with the
	// query at the branch tier (|B∩B| < max(|V1|, |V2|) − 2τ̂), and one
	// with |ΔV| > τ̂ at the size tier. The scorer gives Φ = 0 to a graph
	// outside its size window, whose floor is also the least |B∩B| of any
	// pair scoring above 0.
	var need index.Need
	m := len(qs.mq.Branches)
	if ps.opt.Prefilter {
		qs.qp = index.PrepareQuery(q.g)
		need = index.Need{MinShared: m - 2*ps.opt.Tau, SizeLo: m - ps.opt.Tau, SizeHi: m + ps.opt.Tau}
	} else if sw, ok := ps.scorer.(method.SizeWindower); ok {
		qs.winLo, qs.winHi = sw.SizeWindow(&qs.mq)
		need = index.Need{MinShared: qs.winLo, SizeLo: qs.winLo, SizeHi: qs.winHi}
	}
	qs.probes = probesPool.Get().(*index.Probes)
	defer probesPool.Put(qs.probes)
	views := ps.proj.views
	qs.probes.Reset(len(views))
	for i := range views {
		qs.probes.Plan(i, &views[i].Post, views[i].Sizes, qs.mq.Branches, need)
	}
	opt := engine.Options{Workers: ps.opt.Workers, Observe: func(d time.Duration) { tr.scanNS += int64(d) }}
	if need.MinShared > 0 {
		// A candidate costs tens of nanoseconds to decide; a few thousand
		// of them are not worth a second worker's hand-off.
		if opt.Workers <= 0 {
			opt.Workers = runtime.GOMAXPROCS(0)
		}
		opt.Workers = min(opt.Workers, 1+qs.probes.Bound()/candidatesPerWorker)
	}
	if !ps.opt.CollectAll {
		return engine.ScanRanges(ctx, ps.proj.len(), opt, qs.newRunner, emit)
	}
	// A CollectAll consumer also gets the slots that score 0 unread. They
	// come in a second scan, once every candidate has been offered, so
	// top-K's heap holds its best K by then and skips ranges whole.
	stopped := false
	consume := func(pos int, m Match) bool {
		more := emit(pos, m)
		stopped = stopped || !more
		return more
	}
	scanned, err := engine.ScanRanges(ctx, ps.proj.len(), opt, qs.newRunner, consume)
	if err != nil || stopped {
		return scanned, err
	}
	qs.zeros = true
	_, err = engine.ScanRanges(ctx, ps.proj.len(), opt, qs.newRunner, consume)
	return scanned, err
}

// probesPool recycles the per-query candidate generators and the scratch
// they are planned in.
var probesPool = sync.Pool{New: func() any { return new(index.Probes) }}

// candidatesPerWorker is how many candidates a scan with a shared-branch
// bound gives each worker, at least: below it, starting and joining a
// worker costs more than the candidates it would take.
const candidatesPerWorker = 4096

// queryScan is what the workers of one single-query scan share, all of it
// read-only while they run.
type queryScan struct {
	ps     *preparedSearch
	tr     *traceAcc
	mq     method.Query
	qp     index.QueryPre // prefiltered scans only
	probes *index.Probes  // one candidate generator per view
	admit  func(index int, score float64) bool

	// An unfiltered scan: entries sized outside [winLo, winHi] score
	// exactly 0 (winLo > winHi: all do). Every size is inside unless the
	// scorer is a method.SizeWindower.
	winLo, winHi int
	// zeros marks a CollectAll scan's second pass, which emits the slots
	// the first decided as scoring 0 without reading them.
	zeros bool
}

// rangeScan is one worker's side of a single-query scan. It splits each
// claimed range at view boundaries and takes each segment in steps: the
// view's probe marks the segment's candidates in a bitset; a filter pass
// reads one column for each candidate (signatures for a prefiltered scan,
// sizes for an unfiltered one) and clears the bits the column decides; a
// scoring pass runs over the bits left. A slot that is no candidate
// shares too few branches with the query to matter and is decided
// unread: pruned, or scored 0 — which only a CollectAll consumer keeps,
// and gets from the zero pass. Only a slot left to the scoring pass has
// its *db.Entry loaded for scoring, and nothing is shared between workers
// within a range but the engine's stop flag; the pruned and visited
// counts are published when the range is done and, when traced, the
// passes' clock spans when each segment is.
type rangeScan struct {
	*queryScan
	tally   pruneTally // prefiltered scans only
	visited int        // candidates read since the last publication

	// The segment being scanned: the view, and the scan position of its
	// slot 0.
	v    *shard.View
	base int
	// cand has bit i set while slot lo+i of the segment is a candidate
	// not yet decided; buf backs it for segments up to the engine's
	// largest claim.
	cand []uint64
	buf  [64]uint64
}

func (qs *queryScan) newRunner() engine.Runner[Match] {
	w := &rangeScan{queryScan: qs}
	w.cand = w.buf[:0]
	if qs.ps.opt.Prefilter {
		w.tally = qs.ps.newTally()
	}
	return w.run
}

// run scans the claimed positions [lo, hi) view by view, each view at its
// own local slots.
func (w *rangeScan) run(s *engine.Scanner[Match], lo, hi int) (int, error) {
	starts := w.ps.proj.starts
	done := 0
	var err error
	for vi := sort.SearchInts(starts, lo+1) - 1; lo < hi; vi++ {
		end := min(hi, starts[vi+1])
		if end == lo {
			continue // an empty view: no slot to read, and none to index
		}
		var n int
		n, err = w.segment(s, vi, lo-starts[vi], end-starts[vi])
		done += n
		if lo = end; err != nil || s.Stopped() {
			break
		}
	}
	if w.ps.opt.Prefilter {
		w.tally.publish(w.tr)
	}
	if w.visited != 0 {
		w.tr.visited.Add(int64(w.visited))
		w.visited = 0
	}
	return done, err
}

// segment scans slots [lo, hi) of view vi — the candidates' filter pass,
// then the scoring pass over what it left — and returns how many slots it
// decided. In the zero pass it emits the zeros instead.
func (w *rangeScan) segment(s *engine.Scanner[Match], vi, lo, hi int) (int, error) {
	ps, tr := w.ps, w.tr
	w.v, w.base = &ps.proj.views[vi], ps.proj.starts[vi]
	var t0, t1 time.Time
	if tr.deep {
		t0 = time.Now()
	}
	words := (hi - lo + 63) >> 6
	if cap(w.cand) < words {
		w.cand = make([]uint64, words)
	}
	w.cand = w.cand[:words]
	if w.zeros {
		// A heap that refuses a zero at the segment's least ID refuses
		// all of its zeros. Inside the view's ascending prefix that is
		// slot lo's ID, and the first zero refused ends the segment.
		// Elsewhere 0 stands in for it: a heap that refuses (0, 0)
		// holds K matches above 0.
		sorted := w.admit != nil && hi <= w.v.Asc
		least := 0
		if sorted {
			least = int(w.v.IDs[lo])
		}
		if w.admit == nil || w.admit(least, 0) {
			w.probes.View(vi).Mark(w.cand, lo, hi)
			w.sizeFilter(lo)
			w.emitZeros(s, lo, hi, sorted)
		}
		if tr.deep {
			tr.scoreNS.Add(int64(time.Since(t0)))
		}
		return 0, nil // the first pass counted them
	}
	n := w.probes.View(vi).Mark(w.cand, lo, hi)
	w.visited += n
	var decided int
	if ps.opt.Prefilter {
		// A slot the postings do not name fails the branch or the size
		// tier: pruned unread.
		decided = hi - lo - n + w.prefilter(s, lo)
		w.tally.discard(vi, decided)
	} else {
		decided = hi - lo - n + w.sizeFilter(lo)
	}
	if tr.deep {
		t1 = time.Now()
	}
	scored, err := w.score(s, lo)
	decided += scored
	if tr.deep {
		if !ps.opt.Prefilter {
			t1 = t0 // no prefilter: the whole segment is scoring
		}
		tr.prefilterNS.Add(int64(t1.Sub(t0)))
		tr.scoreNS.Add(int64(time.Since(t1)))
	}
	return decided, err
}

// prefilter runs each candidate through the view's signature column and,
// where the signature cannot decide, the exact bound on the one entry
// loaded for it; it clears the candidates they prune and returns how
// many it cleared.
func (w *rangeScan) prefilter(s *engine.Scanner[Match], lo int) int {
	pre, tau := &w.v.Pre, w.ps.opt.Tau
	pruned := 0
	for i, word := range w.cand {
		for ; word != 0 && !s.Stopped(); word &= word - 1 {
			b := bits.TrailingZeros64(word)
			slot := lo + i<<6 + b
			if pre.Prunable(&w.qp, w.mq.Branches, w.v.Entries[slot], slot, tau) {
				w.cand[i] &^= 1 << b
				pruned++
			}
		}
	}
	return pruned
}

// sizeFilter reads the view's sizes column for each candidate and clears
// the ones outside the scorer's window: they score exactly 0, which only
// a CollectAll consumer keeps (withDefaults makes γ positive), and the
// zero pass emits them. It returns how many it cleared.
func (w *rangeScan) sizeFilter(lo int) int {
	sizes, out := w.v.Sizes, 0
	for i, word := range w.cand {
		for ; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			if size := int(sizes[lo+i<<6+b]); size < w.winLo || size > w.winHi {
				w.cand[i] &^= 1 << b
				out++
			}
		}
	}
	return out
}

// score runs the scorer over the candidates left and reports how many it
// finished. A Match is built only for a kept entry: a discarded one
// touches its Entry header and branch slice, not e.G.
func (w *rangeScan) score(s *engine.Scanner[Match], lo int) (int, error) {
	done := 0
	for i, word := range w.cand {
		for ; word != 0; word &= word - 1 {
			if s.Stopped() {
				return done, nil
			}
			slot := lo + i<<6 + bits.TrailingZeros64(word)
			e := w.v.Entries[slot]
			keep, score, err := w.ps.scorer.Score(&w.mq, e)
			if err != nil {
				return done, err
			}
			done++
			if !keep || (w.admit != nil && !w.admit(int(e.ID), score)) {
				continue
			}
			if !s.Emit(w.base+slot, Match{Index: int(e.ID), Name: e.G.Name, Score: score}) {
				return done, nil
			}
		}
	}
	return done, nil
}

// emitZeros hands a CollectAll consumer the slots of [lo, hi) without a
// candidate bit — each scores exactly 0 — reading the ids column and, for
// a match, the entry's name. sorted reports that the IDs ascend over the
// segment, so the first zero the consumer refuses is the last it is asked
// about: the K-th match only improves, and every later slot's ID is larger.
func (w *rangeScan) emitZeros(s *engine.Scanner[Match], lo, hi int, sorted bool) {
	v := w.v
	for i, word := range w.cand {
		for free := ^word; free != 0; free &= free - 1 {
			slot := lo + i<<6 + bits.TrailingZeros64(free)
			if slot >= hi {
				return
			}
			id := int(v.IDs[slot])
			if w.admit != nil && !w.admit(id, 0) {
				if sorted {
					return
				}
				continue
			}
			if !s.Emit(w.base+slot, Match{Index: id, Name: v.Entries[slot].G.Name}) {
				return
			}
		}
	}
}

// collect runs one query to completion and gathers matches in
// deterministic output order: ascending graph ID.
func (ps *preparedSearch) collect(ctx context.Context, q *Query) (*Result, error) {
	start := time.Now()
	matches := []Match{}
	tr := &traceAcc{deep: ps.opt.Trace}
	scanned, err := ps.stream(ctx, q, tr, nil, func(_ int, m Match) bool {
		matches = append(matches, m)
		return true
	})
	if err != nil {
		return nil, err
	}
	mergeStart := time.Now()
	sort.Slice(matches, func(a, b int) bool { return matches[a].Index < matches[b].Index })
	stages := ps.record(tr, scanned, len(matches), int64(time.Since(mergeStart)))
	return &Result{
		Method:  ps.opt.Method,
		Matches: matches,
		Scanned: scanned,
		Elapsed: time.Since(start),
		Epoch:   ps.epoch,
		Stages:  stages,
	}, nil
}

// Search runs the selected method for query q over the stored graphs.
func (d *Database) Search(q *Query, opt SearchOptions) (*Result, error) {
	return d.SearchContext(context.Background(), q, opt)
}

// SearchContext is Search with cancellation: an expired or cancelled
// context aborts the scan and returns the context error.
func (d *Database) SearchContext(ctx context.Context, q *Query, opt SearchOptions) (*Result, error) {
	ps, err := d.prepare(opt)
	if err != nil {
		return nil, err
	}
	return ps.collect(ctx, q)
}

// SearchStream runs the selected method for query q, calling yield once
// per match as the scan produces it. Matches arrive in no particular
// order; yield is never called concurrently. Returning false stops the
// scan early without error — the "first hit" and pagination primitive the
// collecting consumers are built on. SearchStream returns the number of
// graphs examined.
func (d *Database) SearchStream(ctx context.Context, q *Query, opt SearchOptions, yield func(Match) bool) (int, error) {
	st, err := d.SearchStreamStats(ctx, q, opt, yield)
	return st.Scanned, err
}

// StreamStats is SearchStreamStats's summary of a streamed scan: the
// same telemetry a unary Result carries, without materialised matches.
type StreamStats struct {
	Scanned int
	Epoch   uint64
	Stages  StageStats
}

// SearchStreamStats is SearchStream returning the full scan summary —
// scanned count, snapshot epoch and stage breakdown — so streaming
// consumers (the NDJSON endpoint's done-trailer) report the same
// telemetry as unary searches.
func (d *Database) SearchStreamStats(ctx context.Context, q *Query, opt SearchOptions, yield func(Match) bool) (StreamStats, error) {
	ps, err := d.prepare(opt)
	if err != nil {
		return StreamStats{}, err
	}
	tr := &traceAcc{deep: ps.opt.Trace}
	matched := 0
	scanned, err := ps.stream(ctx, q, tr, nil, func(_ int, m Match) bool {
		matched++
		return yield(m)
	})
	if err != nil {
		return StreamStats{}, err
	}
	stages := ps.record(tr, scanned, matched, 0)
	return StreamStats{Scanned: scanned, Epoch: ps.epoch, Stages: stages}, nil
}
