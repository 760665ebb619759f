// Package gsim is a from-scratch Go implementation of the probabilistic
// graph similarity search system GBDA from:
//
//	Zijian Li, Xun Jian, Xiang Lian, Lei Chen.
//	"An Efficient Probabilistic Approach for Graph Similarity Search."
//	ICDE 2018 (extended technical report, arXiv:1706.05476).
//
// Given a database D of labeled graphs, a query graph Q, a similarity
// threshold τ̂ and a probability threshold γ, GBDA returns the graphs G for
// which Pr[GED(Q,G) ≤ τ̂ | GBD(Q,G)] ≥ γ — trading the NP-hard exact Graph
// Edit Distance for a polynomial-time posterior built on the Graph Branch
// Distance, a branch-multiset distance computable in O(n·d).
//
// # Architecture
//
// The query path is three explicit layers, each pluggable on its own:
//
//	method registry  →  scan engine  →  consumers
//
// Method registry (internal/method). Every similarity algorithm — the
// GBDA family of Algorithm 1 (GBDA, GBDA-V1, GBDA-V2), the paper's three
// competitors (exact-LSAP filtering, Greedy-Sort-GED, spectral seriation),
// exact A* GED, and the hybrid filter-verify mode — is a self-registering
// Scorer: Prepare validates database state once per search, Score decides
// one candidate and is called concurrently by the engine. New methods plug
// in by registration, not by editing a switch.
//
// Scan engine (internal/engine). One streaming executor runs every
// search: workers claim ranges of scan positions with one atomic add and
// hand each to a runner that loops over it privately, with context
// cancellation and deadlines (polled before every expensive step, not
// once per claim), first-error capture, and serialised emission with
// early stop; counts are published once per range. The optional
// admissible prefilter (internal/index) runs inside the scan; its layered
// size/label/branch lower bounds are incremental — graphs stored after
// the index is built are summarised on the next prefiltered search, never
// silently skipped.
//
// Consumers. SearchStream feeds matches to a callback as the scan finds
// them and stops when the callback says so; Search collects the full
// result; SearchTopK ranks through a bounded K-heap in O(K) memory;
// SearchBatch amortises preparation across a query workload and
// SearchTopKBatch ranks a whole workload in one pass. All are thin
// adapters over the same engine, so cancellation, parallelism and
// filtering behave identically everywhere.
//
// Service layer (internal/server, cmd/gsimd). Above the consumers sits
// the HTTP serving subsystem: a JSON API (/v1/search, /v1/topk,
// /v1/batch, NDJSON /v1/stream, /v1/graphs ingest/update, DELETE
// /v1/graphs/{id}, /v1/stats, /healthz) over one resident Database.
// Every search request runs the scan; its response reports the epoch of
// the snapshot it read.
//
// Telemetry layer (internal/telemetry). Orthogonal to the query path, a
// lock-free metric core observes every layer above: log-bucketed latency
// histograms (15 KiB of atomic bucket counters each; recording is three
// atomic adds, no locks, no allocation) with mergeable snapshots and
// exact-rank p50/p99/p999 extraction. Each search records coarse stage
// spans (prepare, consistent cut, scan, merge) from a handful of clock
// reads and reports them in Result.Stages; SearchOptions.Trace addition-
// ally times the prefilter/score split — per claimed range, so a traced
// scan runs the untraced loop — for one diagnosed query. The sharded
// store times committed mutations and counts
// scanned-vs-pruned entries per shard, the WAL times appends, fsyncs and
// group-commit waits, and the HTTP layer adds per-endpoint request
// histograms, status-class counters and an in-flight gauge. Everything
// is exposed twice: GET /metrics renders Prometheus text format
// (including gsim_build_info and process_start_time_seconds for scrape
// identity) and /v1/stats carries JSON quantile summaries plus version
// and uptime; a -slowlog threshold logs outlier requests with their
// stage breakdown, remote address and X-Request-Id, rate-limited by a
// token bucket so overload cannot amplify through the logger.
//
// The served system is load-tested and gated by benchmark/ (its own
// module; bash benchmark/run.sh), which BENCHMARK.json declares.
//
// # Storage layer
//
// Under everything sits a sharded mutable collection (internal/shard):
//
//	shard map  →  per-shard entries + id, size and signature columns  →  scatter-gather scan
//
// Every stored graph gets a stable ID at insert time (the value Store
// returns, Match.Index reports, and Delete/Update accept) and is hashed
// onto one of N shards — N is configurable (WithShards, gsimd
// -shards), defaulting to GOMAXPROCS. Each shard owns its entry slice
// with an id, a size and a signature column parallel to it, an epoch
// counter and a mutation lock. Every write — Store, Update, Delete and
// the bulk LoadText, StoreAll and CommitAll — is one store commit that
// locks only the shards it touches, so writes to different shards run
// concurrently instead of serialising behind one collection-wide mutex;
// a batch moves the epoch once while it holds its locks, which is what
// keeps it none-or-all to every search.
//
// A graph being built, queried or scored whole is compressed sparse rows
// (internal/graph): its vertex labels, |V|+1 run offsets and one
// half-edge array in which each vertex's run is sorted by (To, Label) —
// the struct and three slices, whatever the graph's size. One bulk
// procedure counts degrees, takes prefix sums, fills and sorts the runs
// and rejects self-loops, out-of-range endpoints and duplicate edges:
// graph.FromEdges runs it over an edge list (the .gsim text reader, the
// dataset generators, GraphBuilder, which gathers labels and edges and
// builds once — GraphBuilder.Set takes a whole graph and resolves its
// labels under one dictionary lock, the form gsimd's request bodies
// use), and the binary body decoder runs it straight over the body's
// edges (log replay, segment reads, unpacking). The text reader sizes
// nothing from a header's vertex count and rejects a stanza that lists a
// different number of vertices, with the line of its header. In-place
// edits (AddEdge, RemoveEdge, the relabels) stay on the graph for edit
// scripts and generated variants, at O(|V|+|E|) each.
//
// A stored graph is kept packed (graph.Packed in db.Entry.G): its name
// and its binary body, byte for byte what a segment stores. Everything
// a search or a shard column needs is precomputed beside it — the branch
// multiset, the label span, the signature word — so a stored graph is
// unpacked only where a caller needs it whole: the LSAP, Greedy-Sort,
// seriation and exact scorers (and the hybrid's verification),
// Database.Query, SaveText and the flat collection's Graph and Save. A
// write prepares its entries — packing, span, signature, interned
// branches — before it takes a lock, and a write that then fails
// releases what it interned. Segment recovery prepares each graph as it
// decodes it (Map.Prepare, as a write does), so only one graph at a time
// per segment is held in compressed sparse rows. LoadText parses on one goroutine, interning
// labels in input order, packs each graph and computes its branch
// multiset on GOMAXPROCS workers, and interns the branches in input
// order, so it numbers labels, branches and graphs exactly as a serial
// load would; it holds at most a window of about 32 graphs (loadWindow)
// in compressed sparse rows, however large the load. On the repository benchmark's
// corpus (30,000 stored AASD-shaped graphs, 2-core x86-64 Xeon) gsimd's
// peak RSS went from ~260 MB to ~160 MB with compressed sparse rows and
// to ~80 MB with packed entries on the read-only workloads, and from
// ~230 MB to ~120 MB on mixed-durable.
//
// The admissible prefilter (internal/index) keeps no per-graph slices
// and no store of its own. Each shard's signature column holds one 8-byte
// quantized signature word per entry (|V| and |E| bytes plus four
// vertex-label and two edge-label byte counters saturating at 127), and
// each entry carries its label span: |V|, |E| and its sorted label
// multisets as delta+run varints. Both are computed when a graph is
// stored, so every search can prefilter with nothing to build first. The
// hot prune decision compares two signature words with a few SWAR
// operations and touches no pointers; it settles the size tier and nearly
// every label-tier prune on its own, and only pairs the signature cannot
// prove prunable pay for the exact span-walk label distance and the
// branch lower bound — with the exact same prune set as the per-pair
// oracle (index.PairPrunable), since the signature is admissible by
// construction (saturated bucket regions are dropped, so it can only
// under-estimate distance, never over-prune). /v1/stats reports the
// column's and the spans' footprint.
//
// Deletion and update are first-class: Delete swap-removes within the
// owning shard (no tombstones) and resyncs that shard's columns;
// Update replaces content under a stable ID. Both release the victim's
// interned branch refcounts, and the shared branch dictionary compacts
// itself once enough keys die — dead IDs are retired, never reused, so
// an in-flight scan can never mis-match a recycled ID.
//
// A search takes a consistent cut of per-shard snapshots at prepare time
// (every shard read-locked while their headers are copied) and scans it
// lock-free: the shards' views are laid end to end by prefix sums — no
// column is copied — the scan engine scatters range claims across them,
// each claim read view by view in place, and the gather side orders
// matches by stable graph ID, so results — values and order — are
// bit-identical to the unsharded layout. A graph stored during a scan is
// visible to the next search, never the running one; a graph deleted or
// replaced mid-scan is guaranteed gone from the next search and may
// additionally stop matching the running one (queries resolve branch
// keys against the live dictionary, and a compaction can retire keys
// only the just-deleted graph held) — a racing scan can see a deletion
// early, never a spurious match. The
// global epoch advances once per mutation batch, so a result computed at
// epoch E is current exactly while Epoch() == E. SaveText writes one
// logical collection in ID order, so .gsim files are interchangeable
// across shard counts, re-sharded on load.
//
// # The durability layer
//
// Open(dir) turns the sharded store durable; New() keeps it in-memory.
// The data directory holds three kinds of files, tied by a manifest:
// per-shard append-only write-ahead logs (wal-<shard>-<gen>.log),
// per-shard snapshot segments (seg-<shard>-<gen>.bin), and MANIFEST,
// which names the database epoch, shard count, label dictionary, the
// segment list and the first log generation the segments do not cover.
//
// Every Store/Update/Delete journals a record to its owning shard's log
// inside that shard's critical section — log order is apply order, and
// shards never contend on each other's logs, so journaling scales with
// the shard count exactly like the in-memory commit path. Durability
// waits happen outside every lock under a group-commit protocol: under
// FsyncAlways (the default) concurrent committers share fsyncs via
// leader election, so an acknowledged mutation survives kill -9 while
// sharded ingest stays parallel; FsyncInterval bounds loss to a
// background sync cadence; FsyncNever leaves flushing to the OS.
// Records carry label names, not dictionary IDs, so replay is
// independent of dictionary state.
//
// A log record and a segment entry carry each graph in one body format,
// written by graph.AppendBody and read by graph.Cursor: vertex labels,
// then (u, v, label) edges, each label coded by its container — a
// record-local string table for the log, the manifest dictionary for a
// segment. A packed graph is that body with raw dictionary IDs, so a
// checkpoint copies each stored body into its segment as it is, and a
// log record re-codes it in one walk. The one decoder bounds every count by the bytes left, checks
// each label code and endpoint, refuses trailing bytes, and builds the
// graph through graph.FromEdges, which refuses self-loops and duplicate
// edges; CRC, magic and IDs stay with the container.
//
// A checkpoint — explicit (Checkpoint, POST /v1/admin/checkpoint),
// automatic (WithAutoCheckpoint's WAL-size threshold), or the final one
// in Close — cuts each shard's entries while rotating its log to the
// next generation inside the same critical section, writes and fsyncs
// the segments in parallel, atomically replaces the manifest
// (tmp + rename + directory fsync), and only then deletes the
// superseded logs: recovery time and disk growth stay bounded, and
// every crash window leaves a directory one manifest describes exactly.
//
// Recovery (Open on an existing directory) loads the segments in
// parallel — a flat varint codec with a CRC-32C trailer, decoded
// without reflection, each graph prepared as it is decoded — then
// replays each shard's log past its segment, tolerating a torn tail
// (records are CRC-framed; an interrupted append is dropped, every
// complete record before it survives) and failing loudly on structural
// damage like a missing segment or a graph ID that segments list twice.
// Restored graphs enter the shards through the same locked apply as a
// live write (shard.Map.Replay: a segment per batch, a log record per
// call), and recovery ends with one postings build per shard, in
// parallel, so Open returns a store whose postings are complete. If
// anything replayed or the shard count changed (WithShards re-shards on
// open), the recovered state is checkpointed immediately, so a clean
// Open always starts compact.
// BenchmarkRecovery gates recovery time in CI.
//
// A fresh directory can be seeded from a .gsim text file via WithImport
// (consulted only until the first manifest lands). The on-disk formats
// are this directory for durability and .gsim text for interchange.
//
// # Batches
//
// A batch (SearchBatch, SearchBatchFunc, SearchTopKBatch) validates and
// prepares the scorer and takes the consistent cut once, then runs each
// query through the same parallel scan a single search runs — branch
// postings, size window, signatures and bounded merge included. Results
// reach the caller per query, so a SearchBatchFunc consumer holds at most
// one query's result (for CollectAll, the whole scored database), and
// each Result reports its own Scanned, Elapsed and Stages.
//
// The offline stage (BuildPriors) fits the GBD prior — a Gaussian mixture
// over sampled pair GBDs — and prepares the per-size Jeffreys priors the
// posterior integrates over.
//
// # The two-table hot path
//
// Steady-state pair scoring is lock-free and allocation-free: the cost of
// a scored pair is one bounded integer merge plus, when the pair survives
// it, one table lookup — and most stored graphs are never read at all.
//
// Candidates, not a scan. Every search that knows the least number of
// branches a graph must share with the query to matter generates its
// candidates from per-shard branch postings (index.Postings) and decides
// every other position unread. A prefiltered search prunes a graph
// sharing fewer than |Vq| − 2τ̂ at the branch tier; an unfiltered
// GBDA/V1/V2/Hybrid search gives Φ = 0 to one below the floor of the
// scorer's size window (method.SizeWindower: [|Vq| − 2τ̂, |Vq| + 2τ̂], or
// the weighted equivalent for V2), which is also the least |B∩B| of any
// pair scoring above 0. A branch is a 1-star q-gram, so by the
// prefix-filter rule of MSQ-Index a graph sharing t branches holds one of
// any |Bq| − t + 1 query branch occurrences: the scan reads the lists of
// the query's rarest branches covering that many — 2τ̂ + 1, with or
// without the prefilter — keeps the postings whose stored size is inside
// the size bound, and adds the shard's stale slots (see internal/shard:
// those changed since the lists were built, and the tail appended since).
// On the benchmark corpus that leaves ~120 candidates of 30,000 per
// unfiltered search or top-K and ~80 per prefiltered one
// (StageStats.Visited);
// Scanned still counts every position, as decided. Methods without a
// size window, and queries too small for a bound, make every position a
// candidate.
//
// Columns and ranges. The scan reads every shard's view of the cut in
// place: entry pointers plus columns over the same slots — stable IDs,
// sizes (branch counts) and, with the prefilter, signature words. A
// worker splits each claimed range at view boundaries and marks each
// piece's candidates in a bitset. A filter pass reads one column per
// candidate — signatures for a prefiltered scan, sizes for an unfiltered
// one — and the scoring pass loads the *db.Entry of the candidates left,
// and only theirs. What the filter and the postings discarded is counted
// in the worker and published — to the search's counter and, by the view
// it came from, to the per-shard ones — once per range; before that, two
// shared atomic adds per pruned entry were most of a prefiltered search
// and made two workers slower than one. A scan whose candidates are too
// few to share runs on one worker. CollectAll consumers get the unread
// zero-score positions from a second pass over the ids column, after
// every candidate has been offered. Top-K skips a range of them whole
// once its heap refuses a zero at the range's least ID: that is 0 in
// general, and the first slot's ID inside the prefix of a view whose IDs
// ascend (shard.View.Asc: the shard extends it on each append above its
// last ID and cuts it at the slot a delete swap-removes into).
//
// Interned branch IDs. The database layer interns every distinct branch
// key into a shared dictionary (db.BranchDict) and stores each graph's
// branch multiset as its sorted IDs delta-coded (branch.Coded: a uvarint
// count, then uvarint gaps, about a byte per vertex), so GBD is a linear
// merge of integers that decodes the stored side as it walks.
// The posterior scorers never need that merge to finish on a far pair:
// Algorithm 1 uses GBD only to look up Φ, which is exactly 0 beyond
// ϕ = core.Support(τ̂) = 2τ̂ — one edit relabels one vertex or one edge,
// changing at most two branches — so they call branch.IntersectAtLeastIDs
// with need = max{|V1|,|V2|} − 2τ̂ — a merge that carries a miss budget per side and
// stops when either is spent, at once when the sizes alone decide — and
// score an aborted merge as Φ = 0, which is what the full count returned.
// On the repository benchmark's corpus 99.9% of (query, graph) pairs stop
// early (83% on the sizes alone at τ̂ = 3) at ~12 ns per pair instead of
// ~200 ns. The prefilter's branch tier reaches the same need by its own
// argument (⌈GBD/2⌉ > τ̂ otherwise); branch.IntersectSizeIDs, the same
// kernel with no bound, serves prior sampling, which consumes the count
// itself. Dictionary entries are refcounted; deletes drive them
// dead and compaction reclaims them.
// Queries resolve their key-form multisets against the dictionary at
// search-prepare time; branches the database has never seen map to
// per-search ephemeral IDs that are never interned (query traffic cannot
// grow the dictionary) and match nothing, which is exactly the key
// semantics. No on-disk format carries branch data: it is derived, and
// every load path re-interns it from the graphs.
//
// Posterior tables. The posterior Φ = Pr[GED ≤ τ̂ | GBD = ϕ] depends only
// on (v, ϕ) for a fixed configuration, and ϕ ≤ 2τ̂ for any reachable pair
// (Section VI-B), so Prepare folds the whole Λ1·Λ3/Λ2 pipeline into a
// dense [v][ϕ] table (core.PosteriorTable), cached on the model workspace
// per (τ̂, variant) and shared by every later search with the same
// configuration. Scoring a pair indexes the table — no mutex, no GMM
// evaluation, no allocation; a query size the table has not seen takes a
// build-once miss path. Building a table also retires the models'
// per-ϕ caches, which previously grew without bound. /v1/stats reports
// table count/bytes and the branch-dictionary size; benchmarks
// BenchmarkKernel_Posterior, BenchmarkKernel_GBD1000 and
// BenchmarkKernel_GBDBounded gate the kernels in CI.
//
// # Robustness
//
// The durability layer performs every file operation through an
// injectable filesystem seam (internal/faultfs), so its failure paths —
// a failed fsync, ENOSPC mid-segment, a torn manifest write — are
// deterministic tests, not code that first runs when hardware
// misbehaves. A journaling or checkpoint fault flips the database into
// a degraded-read-only state rather than crashing or silently dropping
// durability: searches keep serving from memory, mutations fail fast
// with ErrDegraded, and a background probe retries a checkpoint with
// jittered exponential backoff (WithRecoveryBackoff). A successful
// checkpoint — the probe's, the auto-checkpointer's or an operator's —
// rotates every shard onto fresh logs and snapshots the whole store, so
// it doubles as the recovery action and restores the healthy state.
// Health reports the current state, cause and transition counters; the
// HTTP layer maps it to 503 + Retry-After on mutations and a /readyz
// readiness probe.
//
// # Quick start
//
//	d, err := gsim.Open("/var/lib/gsim") // durable; gsim.New() for in-memory
//	if err != nil { ... }
//	defer d.Close()
//	b := d.NewGraph("g0")
//	v0 := b.AddVertex("C")
//	v1 := b.AddVertex("O")
//	b.AddEdge(v0, v1, "double")
//	b.Store()
//	// ... add more graphs ...
//	if err := d.BuildPriors(gsim.OfflineConfig{}); err != nil { ... }
//	q := d.NewGraph("query") // build the query the same way
//	// ... vertices and edges ...
//	res, err := d.Search(q.Query(), gsim.SearchOptions{Tau: 3, Gamma: 0.9})
//
// Streaming and ranking ride the same scan:
//
//	// stop at the first confident hit
//	d.SearchStream(ctx, query, opt, func(m gsim.Match) bool { return false })
//	// the 10 most similar graphs, O(10) memory
//	d.SearchTopK(query, gsim.TopKOptions{Method: gsim.GBDA, K: 10})
//	// one prepared scorer over a whole workload, one scan per query
//	d.SearchBatch(ctx, queries, opt)
//	// the 10 most similar graphs per query
//	d.SearchTopKBatch(ctx, queries, gsim.TopKOptions{Method: gsim.GBDA, K: 10})
//
// To serve the database over HTTP, run the gsimd command (see "Serving
// over HTTP" in README.md):
//
//	gsimd -data /var/lib/gsim -build-priors -addr :8764
//
// See the examples directory for runnable programs and README.md for the
// project overview.
package gsim
