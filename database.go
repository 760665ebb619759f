package gsim

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"gsim/internal/branch"
	"gsim/internal/core"
	"gsim/internal/db"
	"gsim/internal/graph"
	"gsim/internal/index"
	"gsim/internal/method"
	"gsim/internal/shard"
	"gsim/internal/telemetry"
	"gsim/internal/wal"
)

// Stats re-exports the collection statistics (the shape of Table III).
type Stats = db.Stats

// ErrNotFound reports that no stored graph carries the requested ID —
// returned by Delete and Update for unknown (or already deleted) IDs.
// The serving layer maps it to HTTP 404.
var ErrNotFound = errors.New("gsim: no graph with that id")

// ErrGraphTooLarge reports a graph whose write-ahead-log record would
// exceed the log's per-record limit (64 MiB). Every database refuses such
// a graph, durable or in memory, so whatever one database holds another
// can journal; the write that carried it is refused whole and changes
// nothing. The serving layer maps it to HTTP 413.
var ErrGraphTooLarge = errors.New("gsim: graph too large for one log record")

// maxRecordBytes is the largest log record a stored graph may take: the
// log's own limit, a variable so a test can lower it.
var maxRecordBytes = wal.MaxRecordBytes

// Database owns a sharded graph store plus the offline artifacts of the
// GBDA search (Section VI): the GBD prior fitted on sampled pairs and the
// per-size model/Jeffreys-prior cache. Build graphs with NewGraph, then
// call BuildPriors once before any GBDA-family Search.
//
// Storage is partitioned (internal/shard): every stored graph gets a
// stable ID at insert time — the value reported as Match.Index and
// accepted by Delete/Update — and is hashed onto one of N shards, each
// with its own mutation lock, epoch counter and prefilter summaries.
// Mutations on different shards proceed concurrently; a search takes a
// consistent cut of per-shard snapshots at prepare time and scans it
// lock-free, so an in-flight scan runs to completion against the state it
// started from — a graph stored mid-scan appears to the next search,
// never the current one, and a graph deleted mid-scan is gone from the
// next search at the latest (a racing scan may observe the deletion
// early — see the storage-layer notes in doc.go — but can never gain a
// spurious match from it). Epoch observes this: any result computed
// at epoch E is stale once Epoch() > E.
type Database struct {
	store  *shard.Map // assigned once at construction, never replaced
	dur    *durable   // persistence state; nil for an in-memory database
	health health     // degraded-mode state machine (health.go); zero value = healthy

	// mu guards the offline artifacts and the epoch component their
	// refits advance; the store synchronises itself.
	mu       sync.RWMutex
	epoch    uint64 // db-level component: prior fits (plus the recovered floor)
	tauMax   int
	ws       *core.Workspace
	gbdPrior *core.GBDPrior

	// apMu guards the cached scan projection: prepare reuses it until a
	// mutation moves the store epoch (see Database.projection in
	// search.go).
	apMu sync.Mutex
	proj *projection

	// Telemetry lives as value fields so every constructor — literal
	// structs included — gets working metrics with zero initialisation:
	// the histograms' zero values are ready to record. The store's own
	// per-shard counters live on shard.Map.
	tele    telemetry.SearchMetrics
	walTele telemetry.WALMetrics
}

// Telemetry returns the database's search-side metric group: per-stage
// latency histograms plus scanned/pruned/matched counters. Never nil;
// safe for concurrent use.
func (d *Database) Telemetry() *telemetry.SearchMetrics { return &d.tele }

// WALTelemetry returns the durability-layer metric group
// (append/fsync/group-commit-wait histograms). The histograms only
// record on a durable database opened with a WAL; elsewhere they stay
// empty.
func (d *Database) WALTelemetry() *telemetry.WALMetrics { return &d.walTele }

// StoreTelemetry returns the store's metric group: per-shard
// scanned/pruned/mutation counters and mutation-latency histograms.
func (d *Database) StoreTelemetry() *telemetry.StoreMetrics { return d.store.Telemetry() }

// projection is one store epoch's consistent cut as the scan reads it:
// the per-shard views laid end to end, with nothing copied per position.
type projection struct {
	epoch   uint64
	postGen uint64 // the store's postings generation the views carry
	views   []shard.View
	// starts[i] is the scan position of views[i]'s slot 0 and
	// starts[len(views)] the scan length: where a claimed range splits
	// at view boundaries, and the span each shard's scanned count is
	// attributed from.
	starts []int
}

// len reports the number of scan positions.
func (p *projection) len() int { return p.starts[len(p.views)] }

// Epoch returns the database version: a counter advanced by every
// mutation that can change search results (graph inserts, deletes,
// updates, prior fits). Two equal-epoch observations bracket an interval
// with no mutations, so a result computed in between is still current.
// The value combines the db-level epoch (prior fits) with the sharded
// store's own mutation counter.
func (d *Database) Epoch() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.epoch + d.store.Epoch()
}

// FromCollection wraps an existing internal collection — the bridge used by
// the experiment harness and dataset generators, which assemble collections
// directly. It stores the collection graphs whose indexes ids lists (the
// "95% database" of Section VII-A), each once and under its index, so
// match IDs index the collection; unknown or repeated IDs are skipped, and
// nil stores every graph. The held-out graphs are queried through
// CollectionQuery.
//
// Deprecated: external users build databases with New (or Open) and
// NewGraph; this bridge remains for the experiment harness.
func FromCollection(col *db.Collection, ids []int) *Database {
	return FromCollectionShards(col, ids, 0)
}

// FromCollectionShards is FromCollection with an explicit shard count.
//
// Deprecated: see FromCollection.
func FromCollectionShards(col *db.Collection, ids []int, n int) *Database {
	return &Database{store: shard.FromCollection(col, ids, shard.Shards(n))}
}

// CollectionQuery prepares collection graph i as a query, whether or not a
// database built from the collection stores it — the held-out queries of
// Section VII-A. Search it against a FromCollection database of the same
// collection, whose dictionaries it was built in.
//
// Deprecated: see FromCollection.
func CollectionQuery(col *db.Collection, i int) *Query { return newQuery(col.Graph(i)) }

// NumShards reports the storage shard count.
func (d *Database) NumShards() int { return d.store.NumShards() }

// Len reports the number of stored graphs, all of which Search scans.
func (d *Database) Len() int { return d.store.Len() }

// Stats summarises the stored graphs.
func (d *Database) Stats() Stats { return d.store.Stats() }

// Name returns the database name.
func (d *Database) Name() string { return d.store.Name() }

// ShardSizes reports how many graphs each storage shard holds —
// placement diagnostics surfaced by the serving layer's /v1/stats.
func (d *Database) ShardSizes() []int { return d.store.ShardSizes() }

// LoadText bulk-loads graphs in .gsim text form (see internal/graph codec:
// "g <name> <n>" header, "v <i> <label>" and "e <u> <v> <label>" records).
// Each graph is prepared for storage as it is parsed, before any lock is
// taken, so only one graph at a time is ever held unpacked. The batch is
// then inserted as one commit, which locks the shards it lands on: a
// concurrent search sees either none or all of the loaded graphs, and the
// epoch advances once. A load that fails changes nothing.
func (d *Database) LoadText(r io.Reader) (int, error) {
	if err := d.writable(); err != nil {
		return 0, err
	}
	var batch []shard.Mutation
	if err := graph.ReadEach(r, d.store.Dict(), func(g *graph.Graph) error {
		batch = append(batch, shard.Mutation{Op: wal.OpStore, P: d.store.Prepare(g)})
		return d.fits(len(batch)-1, batch[len(batch)-1].P)
	}); err != nil {
		d.store.Discard(batch)
		return 0, err
	}
	if _, _, _, err := d.store.Commit(telemetry.OpCommit, batch); err != nil {
		return 0, err
	}
	return len(batch), nil
}

// SaveText writes every stored graph in .gsim text form, in insertion
// (ID) order — one logical collection, whatever the shard layout —
// unpacking one graph at a time.
func (d *Database) SaveText(w io.Writer) error {
	for _, e := range d.store.Ordered() {
		if err := graph.Write(w, e.G.Unpack(), d.store.Dict()); err != nil {
			return err
		}
	}
	return nil
}

// Delete removes the graph with the given ID (the value Store returned
// and Match.Index reports). The graph disappears from the next search —
// in-flight scans finish against their snapshot — the epoch advances, so
// every cached result is invalidated, and the graph's branch refcounts
// are released (dictionary compaction reclaims dead entries once enough
// accumulate). Returns ErrNotFound for unknown or already-deleted IDs.
func (d *Database) Delete(id int) error {
	if err := d.writable(); err != nil {
		return err
	}
	if id < 0 {
		return fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	_, _, ok, err := d.store.Commit(telemetry.OpDelete, []shard.Mutation{{Op: wal.OpDelete, ID: uint64(id)}})
	if err == nil && !ok {
		err = fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	return err
}

// GraphBuilder constructs one labeled graph against the database's shared
// label dictionary. Finish with Store (insert into the database), Update
// (replace a stored graph) or Query (use as a search query without
// storing). Builders may run concurrently with each other and with
// searches (the dictionary is internally synchronised); each builder is
// itself single-goroutine.
//
// A builder gathers vertex labels and edges, checking each edge as it
// arrives, and builds the graph once, in one pass, when it is finished.
type GraphBuilder struct {
	d       *Database
	name    string
	vlabels []graph.ID
	edges   []graph.Edge
	pairs   map[uint64]int      // vertex pair → index in edges; built on first use
	eph     map[string]graph.ID // non-nil: query-only builder, see NewQuery
	g       *graph.Graph        // the built graph; nil after an edit
}

// NewGraph starts building a graph with the given name.
func (d *Database) NewGraph(name string) *GraphBuilder {
	return &GraphBuilder{d: d, name: name}
}

// NewQuery starts building a query-only graph: labels already known to
// the database resolve to their shared IDs, while unknown labels map to
// ephemeral negative IDs that are never interned into the shared
// dictionary — so a long-running server answering queries with arbitrary
// labels does not grow the dictionary without bound. An ephemeral ID can
// never equal a stored label's ID (those are non-negative), which is
// exactly the right semantics: a label the database has never seen
// matches nothing. The builder only supports AddVertex/AddEdge/Set and
// Query; Store, AddDirectedEdge and AddWeightedEdge fail (they need
// durable labels).
func (d *Database) NewQuery(name string) *GraphBuilder {
	b := d.NewGraph(name)
	b.eph = make(map[string]graph.ID)
	return b
}

// intern resolves a label string for this builder: through the shared
// dictionary for storable builders, lookup-with-ephemeral-fallback for
// query-only ones.
func (b *GraphBuilder) intern(label string) graph.ID {
	dict := b.d.store.Dict()
	if b.eph == nil {
		return dict.Intern(label)
	}
	if id, ok := dict.Lookup(label); ok {
		return id
	}
	if id, ok := b.eph[label]; ok {
		return id
	}
	id := graph.ID(-1 - len(b.eph))
	b.eph[label] = id
	return id
}

// AddVertex appends a vertex with a string label and returns its index.
func (b *GraphBuilder) AddVertex(label string) int {
	b.vlabels = append(b.vlabels, b.intern(label))
	b.g = nil
	return len(b.vlabels) - 1
}

// AddEdge inserts an undirected labeled edge between vertices u and v. It
// reports an error for self-loops, out-of-range endpoints or duplicate
// edges, keeping the graph simple.
func (b *GraphBuilder) AddEdge(u, v int, label string) error {
	return b.addEdge(u, v, b.intern(label))
}

func (b *GraphBuilder) addEdge(u, v int, label graph.ID) error {
	_, dup := b.find(u, v)
	if err := graph.CheckEdge(b.name, len(b.vlabels), u, v, dup); err != nil {
		return err
	}
	b.pairs[pairOf(u, v)] = len(b.edges)
	b.edges = append(b.edges, graph.Edge{U: int32(u), V: int32(v), Label: label})
	b.g = nil
	return nil
}

// find returns the index in b.edges of the edge {u,v}, if present.
func (b *GraphBuilder) find(u, v int) (int, bool) {
	if u < 0 || v < 0 || u >= len(b.vlabels) || v >= len(b.vlabels) {
		return 0, false
	}
	if b.pairs == nil {
		b.pairs = make(map[uint64]int, len(b.edges))
		for i, e := range b.edges {
			b.pairs[pairOf(int(e.U), int(e.V))] = i
		}
	}
	i, ok := b.pairs[pairOf(u, v)]
	return i, ok
}

// pairOf keys the vertex pair {u,v}, both in [0, 2³¹).
func pairOf(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// Edge is one undirected labeled edge of a graph given whole to Set,
// joining vertices U and V. Its JSON form is gsimd's wire form.
type Edge struct {
	U     int    `json:"u"`
	V     int    `json:"v"`
	Label string `json:"label,omitempty"`
}

// Set replaces whatever the builder holds with a whole graph: vertex i
// labeled vertices[i], joined by edges. It accepts exactly the graphs
// AddVertex for every label and then AddEdge for every edge would build,
// but resolves every label under one dictionary lock and builds the graph
// in one pass: it is the form for graphs that arrive whole, like gsimd's
// request bodies. On error the builder is left empty.
func (b *GraphBuilder) Set(vertices []string, edges []Edge) error {
	b.vlabels, b.edges, b.pairs, b.g = nil, nil, nil, nil
	n := len(vertices)
	el := make([]graph.Edge, len(edges))
	for i, e := range edges {
		if err := graph.CheckEdge(b.name, n, e.U, e.V, false); err != nil {
			return err
		}
		el[i] = graph.Edge{U: int32(e.U), V: int32(e.V)}
	}
	vl := make([]graph.ID, n)
	const unknown = graph.ID(math.MinInt32)
	missed := false
	b.d.store.Dict().View(func(v graph.LabelView) {
		resolve := func(s string) graph.ID {
			id, ok := v.Lookup(s)
			if !ok {
				missed, id = true, unknown
			}
			return id
		}
		for i, s := range vertices {
			vl[i] = resolve(s)
		}
		for i, e := range edges {
			el[i].Label = resolve(e.Label)
		}
	})
	// Labels the dictionary lacks are interned (or made ephemeral, for a
	// query) in the order AddVertex and AddEdge would meet them.
	for i := 0; missed && i < n; i++ {
		if vl[i] == unknown {
			vl[i] = b.intern(vertices[i])
		}
	}
	for i := 0; missed && i < len(el); i++ {
		if el[i].Label == unknown {
			el[i].Label = b.intern(edges[i].Label)
		}
	}
	g, err := graph.FromEdges(b.name, vl, el)
	if err != nil {
		return err
	}
	b.vlabels, b.edges, b.g = vl, el, g
	return nil
}

// AddDirectedEdge inserts the arc u→v, folding the direction into the edge
// label as Section II of the paper prescribes ("considering edge directions
// ... as special labels"). Opposite arcs with the same base label merge
// into a bidirectional edge.
func (b *GraphBuilder) AddDirectedEdge(u, v int, base string) error {
	if b.eph != nil {
		return errors.New("gsim: AddDirectedEdge needs a storable builder (NewGraph, not NewQuery)")
	}
	if u == v {
		return fmt.Errorf("graph %q: directed self-loop on %d", b.name, u)
	}
	i, present := b.find(u, v)
	var existing graph.ID
	if present {
		existing = b.edges[i].Label
	}
	l, err := graph.DirectedLabel(b.d.store.Dict(), u, v, base, existing, present)
	switch {
	case err != nil:
		return fmt.Errorf("graph %q: %w", b.name, err)
	case present:
		b.edges[i].Label = l
		b.g = nil
		return nil
	}
	return b.addEdge(u, v, l)
}

// WeightBuckets re-exports the weight-folding quantiser: edge weights are
// discretised into labeled buckets so the label-equality model of the paper
// applies to weighted graphs.
type WeightBuckets = graph.WeightBuckets

// AddWeightedEdge inserts {u,v} with the weight folded to a bucket label.
func (b *GraphBuilder) AddWeightedEdge(u, v int, weight float64, wb WeightBuckets) error {
	if b.eph != nil {
		return errors.New("gsim: AddWeightedEdge needs a storable builder (NewGraph, not NewQuery)")
	}
	return b.addEdge(u, v, wb.Fold(b.d.store.Dict(), weight))
}

// graph returns the builder's graph, building it once after the last
// edit. The graph shares the builder's vertex labels, which neither edits
// in place.
func (b *GraphBuilder) graph() (*graph.Graph, error) {
	if b.g == nil {
		g, err := graph.FromEdges(b.name, slices.Clip(b.vlabels), b.edges)
		if err != nil {
			return nil, err
		}
		b.g = g
	}
	return b.g, nil
}

// storable returns the graph of a builder that can mutate the database:
// one built by NewGraph, not NewQuery.
func (b *GraphBuilder) storable() (*graph.Graph, error) {
	if b.eph != nil {
		return nil, errors.New("gsim: a NewQuery builder cannot mutate the database (its unknown labels are ephemeral); build with NewGraph")
	}
	return b.graph()
}

// commit is every builder write — Store, Update, StoreAll, CommitAll: it
// validates each builder's graph and update target, prepares the graphs
// for storage before any lock is taken, and commits them as one batch,
// whose latency op labels. It returns the first fresh ID; the batch's
// other inserts follow contiguously. On any error nothing changes.
func (d *Database) commit(op telemetry.MutOp, muts []BuilderMutation) (uint64, error) {
	if err := d.writable(); err != nil {
		return 0, err
	}
	var one [1]shard.Mutation
	batch := slices.Grow(one[:0], len(muts))
	for i, mu := range muts {
		var g *graph.Graph
		var err error
		b := mu.Builder
		switch {
		case b == nil || b.d != d:
			err = fmt.Errorf("gsim: builder %d missing or belongs to another database", i)
		case mu.UpdateID != nil && *mu.UpdateID < 0:
			err = fmt.Errorf("%w: %d", ErrNotFound, *mu.UpdateID)
		default:
			if g, err = b.storable(); err != nil {
				err = fmt.Errorf("gsim: graph %d (%q): %w", i, b.name, err)
			}
		}
		if err == nil {
			m := shard.Mutation{Op: wal.OpStore, P: d.store.Prepare(g)}
			if mu.UpdateID != nil {
				m.Op, m.ID = wal.OpUpdate, uint64(*mu.UpdateID)
			}
			batch = append(batch, m)
			err = d.fits(i, m.P)
		}
		if err != nil {
			d.store.Discard(batch)
			return 0, err
		}
	}
	first, missing, ok, err := d.store.Commit(op, batch)
	if err == nil && !ok {
		err = fmt.Errorf("%w: %d", ErrNotFound, missing)
	}
	return first, err
}

// fits refuses the i-th graph of a write when its log record, under the
// widest ID, would take more than maxRecordBytes; the check runs before
// anything is journaled, so a refused batch leaves no record behind.
func (d *Database) fits(i int, p shard.Prepared) error {
	var scratch [512]byte
	g := p.Graph()
	n := len(wal.AppendPacked(scratch[:0], wal.OpStore, math.MaxUint64, g, d.store.Dict()))
	if n > maxRecordBytes {
		return fmt.Errorf("gsim: graph %d (%q): %w: its record takes %d bytes, the limit is %d",
			i, g.Name, ErrGraphTooLarge, n, maxRecordBytes)
	}
	return nil
}

// Store validates the graph, inserts it into the database, and returns
// its graph ID — the stable handle Match.Index reports and Delete/Update
// accept (for a database that never deletes, IDs are dense insertion
// indexes). The insert bumps the database epoch; a search already in
// flight keeps scanning its own snapshot and never sees the new graph,
// the next search does. Only the receiving storage shard is locked, so
// concurrent Stores proceed in parallel.
func (b *GraphBuilder) Store() (int, error) {
	id, err := b.d.commit(telemetry.OpAdd, []BuilderMutation{{Builder: b}})
	if err != nil {
		return 0, err
	}
	return int(id), nil
}

// Update validates the graph and atomically replaces the stored graph
// with the given ID, keeping the ID (and its storage shard). The replaced
// graph's branch refcounts are released exactly like Delete's. In-flight
// scans keep their snapshot; the next search sees the new graph under the
// old ID. Returns ErrNotFound for unknown IDs.
func (b *GraphBuilder) Update(id int) error {
	_, err := b.d.commit(telemetry.OpUpdate, []BuilderMutation{{Builder: b, UpdateID: &id}})
	return err
}

// BuilderMutation is one element of a CommitAll batch: an insert of the
// builder's graph when UpdateID is nil, an in-place replacement of the
// graph stored under *UpdateID otherwise.
type BuilderMutation struct {
	Builder  *GraphBuilder
	UpdateID *int
}

// CommitAll validates and applies a mixed batch of inserts and updates
// atomically: the shards the batch lands on are locked once, the epoch
// moves once, and a concurrent search sees either none or all of the
// batch. On any validation error — including an UpdateID no stored graph
// carries (ErrNotFound) — nothing changes. It returns the resulting graph
// ID of every mutation in batch order: fresh IDs for inserts, the
// (unchanged) target IDs for updates.
func (d *Database) CommitAll(muts []BuilderMutation) ([]int, error) {
	first, err := d.commit(telemetry.OpCommit, muts)
	if err != nil {
		return nil, err
	}
	ids := make([]int, len(muts))
	next := int(first)
	for i, mu := range muts {
		if mu.UpdateID != nil {
			ids[i] = *mu.UpdateID
			continue
		}
		ids[i] = next
		next++
	}
	return ids, nil
}

// StoreAll validates and inserts the graphs of several builders as one
// atomic batch, with CommitAll's contract (the one LoadText gives bulk
// text loads): a concurrent search sees either none or all of them. Every
// builder must come from this database's NewGraph; on any validation
// error nothing is stored. It returns the graph ID of the first inserted
// graph (the rest follow contiguously).
func (d *Database) StoreAll(builders []*GraphBuilder) (int, error) {
	muts := make([]BuilderMutation, len(builders))
	for i, b := range builders {
		muts[i] = BuilderMutation{Builder: b}
	}
	first, err := d.commit(telemetry.OpCommit, muts)
	if err != nil {
		return 0, err
	}
	return int(first), nil
}

// Query finalises the graph as a search query (precomputing its canonical
// branch multiset) without storing it.
func (b *GraphBuilder) Query() *Query {
	g, err := b.graph()
	if err != nil {
		panic(err) // every edge passed AddEdge's checks
	}
	return newQuery(g)
}

// LoadQueryText parses exactly one .gsim stanza against the database's
// label dictionary and prepares it as a query.
func (d *Database) LoadQueryText(r io.Reader) (*Query, error) {
	gs, err := graph.ReadAll(r, d.store.Dict())
	if err != nil {
		return nil, err
	}
	if len(gs) != 1 {
		return nil, fmt.Errorf("gsim: query input holds %d graphs, want exactly 1", len(gs))
	}
	return newQuery(gs[0]), nil
}

// Query is a prepared query graph. It carries the canonical (key-form)
// branch multiset; each search resolves it against the branch dictionary
// of the snapshot it scans (see preparedSearch), so a Query stays valid
// across later Stores — branches unknown at resolve time map to per-search
// ephemeral IDs that are never interned into the shared dictionary, and
// can match no stored entry (a branch the database has never seen
// intersects nothing). Query traffic therefore cannot grow the dictionary,
// mirroring the ephemeral label semantics of NewQuery.
type Query struct {
	g        *graph.Graph
	branches branch.Multiset
}

// newQuery prepares g as a query: one O(|V|·d) pass for its canonical
// multiset, which resolves against whatever snapshot the query later scans.
func newQuery(g *graph.Graph) *Query { return &Query{g: g, branches: branch.MultisetOf(g)} }

// NumVertices reports the query's vertex count.
func (q *Query) NumVertices() int { return q.g.NumVertices() }

// Name returns the query graph's name.
func (q *Query) Name() string { return q.g.Name }

// Query prepares the stored graph with ID i as a query. It panics if no
// graph carries the ID; callers driving it from external input should look
// the graph up themselves.
func (d *Database) Query(i int) *Query {
	e, ok := d.store.Get(uint64(i))
	if !ok {
		panic(fmt.Sprintf("gsim: Query(%d): no graph with that id", i))
	}
	// Entries store the graph packed and its branches as interned IDs, not
	// keys; the query form unpacks it and recomputes the canonical
	// multiset.
	return newQuery(e.G.Unpack())
}

// OfflineConfig tunes BuildPriors, the offline stage of Algorithm 1.
type OfflineConfig struct {
	// TauMax is the largest similarity threshold τ̂ the model supports
	// (default 10, the common range of Section VII-A).
	TauMax int
	// SamplePairs is the number of graph pairs sampled for the GBD prior
	// (the paper uses N = 100,000; default 20,000).
	SamplePairs int
	// Components is the GMM component count K (default 3).
	Components int
	// Seed drives the deterministic pair sampling.
	Seed int64
}

// ErrNoPriors is returned by GBDA-family searches before BuildPriors.
var ErrNoPriors = method.ErrNoPriors

// BuildPriors runs the offline stage: it samples graph pairs, computes
// their GBDs, fits the Gaussian-mixture GBD prior (Λ2, Section V-B) and
// prepares the model workspace whose per-size Jeffreys priors (Λ3,
// Section V-C) are filled lazily as sizes are encountered.
// The sample is drawn from a point-in-time snapshot of the store (ID
// order) and the fit runs without holding the database write lock, so
// concurrent inserts and searches proceed during the offline stage;
// graphs stored mid-fit simply miss the sample (the priors are
// statistical). Only the final artifact install takes the write lock.
func (d *Database) BuildPriors(cfg OfflineConfig) error {
	if cfg.TauMax <= 0 {
		cfg.TauMax = 10
	}
	if cfg.SamplePairs <= 0 {
		cfg.SamplePairs = 20000
	}
	if cfg.Components <= 0 {
		cfg.Components = 3
	}
	if d.store.Len() < 2 {
		return errors.New("gsim: need at least two graphs to fit priors")
	}
	samples := d.store.SamplePairGBDs(cfg.SamplePairs, cfg.Seed)
	prior, err := core.FitGBDPrior(samples, cfg.Components)
	if err != nil {
		return fmt.Errorf("gsim: fitting GBD prior: %w", err)
	}
	s := d.store.Stats()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.gbdPrior = prior
	d.tauMax = cfg.TauMax
	d.ws = core.NewWorkspace(core.Params{LV: s.LV, LE: s.LE, TauMax: cfg.TauMax})
	d.epoch++
	return nil
}

// HasPriors reports whether the offline stage has run.
func (d *Database) HasPriors() bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.ws != nil
}

// TauMax returns the threshold ceiling the priors were built for (0 before
// BuildPriors).
func (d *Database) TauMax() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.tauMax
}

// WarmPosteriorTables builds the posterior lookup table for threshold tau
// (plain-GBDA configuration) ahead of query traffic, so the first search
// after startup hits the steady-state two-table path instead of paying
// the cold build. gsimd's -warm flag calls it at boot. tau must not
// exceed the priors' ceiling; ErrNoPriors before BuildPriors/LoadPriors.
func (d *Database) WarmPosteriorTables(tau int) error {
	d.mu.RLock()
	ws, prior, tauMax := d.ws, d.gbdPrior, d.tauMax
	d.mu.RUnlock()
	if ws == nil {
		return ErrNoPriors
	}
	if tau <= 0 || tau > tauMax {
		return fmt.Errorf("%w: warm tau %d outside (0, %d]", ErrBadOptions, tau, tauMax)
	}
	s := &core.Searcher{WS: ws, GBD: prior}
	ws.PosteriorTable(s, tau, d.store.DistinctSizes())
	return nil
}

// GBDPriorProb exposes Pr[GBD = ϕ] from the fitted prior, for diagnostics
// and the Figure 5 experiment.
func (d *Database) GBDPriorProb(phi float64) (float64, error) {
	d.mu.RLock()
	prior := d.gbdPrior
	d.mu.RUnlock()
	if prior == nil {
		return 0, ErrNoPriors
	}
	return prior.Prob(phi), nil
}

// GEDPriorRow exposes the Jeffreys prior Pr[GED = τ] for extended size v,
// for diagnostics and the Figure 6 experiment.
func (d *Database) GEDPriorRow(v int) ([]float64, error) {
	d.mu.RLock()
	ws := d.ws
	d.mu.RUnlock()
	if ws == nil {
		return nil, ErrNoPriors
	}
	return ws.Model(v).GEDPrior(), nil
}

// BranchDictLen reports the number of distinct branch keys interned by the
// stored graphs — the size of the shared branch dictionary the interned
// multisets index into. Query traffic never grows it (unknown query
// branches stay ephemeral); only Store/Load paths do, and Delete/Update
// release refcounts so compaction can reclaim dead keys.
func (d *Database) BranchDictLen() int { return d.store.BranchDict().Len() }

// BranchDictStats reports the branch dictionary's lifecycle counters:
// live and dead interned keys, cumulative retired IDs and compaction
// passes — the observable effect of Delete/Update on the shared
// dictionary.
func (d *Database) BranchDictStats() db.DictStats { return d.store.BranchDict().Stats() }

// PrefilterStats is the prefilter's aggregate memory footprint across
// shards — see index.MemStats for the counters.
type PrefilterStats = index.MemStats

// PrefilterStats sums the prefilter's footprint over the shards: their
// signature columns and the label spans their entries carry.
func (d *Database) PrefilterStats() PrefilterStats { return d.store.PrefilterMem() }

// PosteriorTableStats reports the posterior lookup tables cached on the
// model workspace — one per (τ̂, variant) search configuration seen since
// the priors were built — and their aggregate row payload in bytes. Zero
// before BuildPriors.
func (d *Database) PosteriorTableStats() (tables int, bytes int64) {
	d.mu.RLock()
	ws := d.ws
	d.mu.RUnlock()
	if ws == nil {
		return 0, 0
	}
	return ws.TableStats()
}
