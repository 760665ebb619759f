package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"
)

// workload is one traffic mix against one server configuration;
// BENCHMARK.json records why each was chosen.
type workload struct {
	name string
	run  func(*runner) error
}

var workloads = []workload{
	{
		name: "search-prefilter",
		run: func(r *runner) error {
			return r.closedLoop(loopSpec{mix: mix{opSearch: 100}, prefilter: true})
		},
	},
	{
		name: "search-scan",
		run: func(r *runner) error {
			return r.closedLoop(loopSpec{mix: mix{opSearch: 75, opTopK: 25}})
		},
	},
	{
		name: "mixed-durable",
		run: func(r *runner) error {
			return r.closedLoop(loopSpec{
				mix:  mix{opSearch: 70, opTopK: 10, opBatch: 5, opIngest: 12, opDelete: 3},
				zipf: true, prefilter: true, durable: true, cache: 1024,
			})
		},
	},
	{
		name: "ingest-recover",
		run:  (*runner).ingestRecover,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// loopSpec parameterises a closed-loop workload.
type loopSpec struct {
	mix       mix
	zipf      bool
	prefilter bool // what search requests ask for
	durable   bool // -data dir with fsync always, base imported
	cache     int  // gsimd -cache
}

const (
	setupBoots   = 3               // boots per run; setup_s and proc.boot_s take their median
	warmup       = time.Second     // untimed traffic before the window
	sliceLen     = 2 * time.Second // the window's figures are quartiles over slices of this length
	minSlices    = 4               // a shorter window reports whole-window figures
	qualityN     = 500             // sample queries scored against exact-GED truth
	consistencyN = 50              // of those, asked with and without prefilter
	maxSpanOps   = 2000            // traced requests kept per client
	maxFailures  = 10              // failure messages kept for the report
	ingestPerSec = 4000            // ingest-recover: graphs of fixed work per second of budget
	ingestBatch  = 16              // ingest-recover: graphs per request
	ingestRounds = 5               // ingest-recover: kill/restart cycles
	selfQueries  = 50              // self-queries after each crash recovery
	noMeaning    = 0.0             // per-layer value of a metric that has no meaning on the workload
)

// runner holds one run's state.
type runner struct {
	cfg    config
	wl     *workload
	seed   int64
	dir    string // scratch directory of this run, removed afterwards
	corpus *corpus
	origin time.Time // zero of span timestamps

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string

	metrics map[string]metric // end-to-end and per-layer, by name
	counts  map[string]int    // sample counts behind the percentiles

	srv   *gsimd
	peak  float64         // max VmHWM over the run's gsimd processes, MB
	boots []time.Duration // exec → ready of every timed boot
	live  map[int]int     // server graph ID → collection index
	spans []span
	stage []stageObs
}

// stageObs is the server's echoed breakdown of one traced read.
type stageObs struct {
	quality bool // from the fixed quality sample, not the timed window
	kind    opKind
	client  time.Duration
	elapsed time.Duration
	scanned int
	matched int
	st      wireStages
}

func (r *runner) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// fail counts one failed operation.
func (r *runner) fail(format string, a ...any) {
	r.mu.Lock()
	r.failed++
	if len(r.failures) < maxFailures {
		r.failures = append(r.failures, fmt.Sprintf(format, a...))
	}
	r.mu.Unlock()
}

func (r *runner) attempt(n int) {
	r.mu.Lock()
	r.attempted += n
	r.mu.Unlock()
}

// boot starts gsimd and folds its peak RSS into the run when it stops.
func (r *runner) boot(args ...string) (*gsimd, error) {
	return startGsimd(r.cfg.gsimd, filepath.Join(r.dir, "gsimd.log"), args...)
}

func (r *runner) retire(g *gsimd, graceful bool) {
	if graceful {
		g.stop()
	} else {
		g.kill()
	}
	if g.peakMB > r.peak {
		r.peak = g.peakMB
	}
}

// retireServing stops the instance serving the run, if there is one.
func (r *runner) retireServing(graceful bool) {
	if r.srv != nil {
		r.retire(r.srv, graceful)
		r.srv = nil
	}
}

// bootSetup boots gsimd setupBoots times with args, so that one slow
// boot does not decide setup_s, and leaves the last instance serving the
// run. With durable set every boot gets a fresh -data directory (an
// import, or an empty store); the last one's path is returned.
func (r *runner) bootSetup(args []string, durable bool) (dataDir string, boots []time.Duration, err error) {
	for i := 0; i < setupBoots; i++ {
		bootArgs := args
		if durable {
			dataDir = filepath.Join(r.dir, fmt.Sprintf("data%d", i))
			bootArgs = append(append([]string(nil), args...), "-data", dataDir)
		}
		g, err := r.boot(bootArgs...)
		if err != nil {
			return "", nil, err
		}
		boots = append(boots, g.boot)
		if i < setupBoots-1 {
			r.retire(g, false)
			if durable {
				os.RemoveAll(dataDir)
			}
			continue
		}
		r.srv = g
	}
	return dataDir, boots, nil
}

// priorArgs are the paper-configuration server flags.
func priorArgs() []string {
	return []string{"-build-priors", "-tau-max", strconv.Itoa(priorsTau), "-pairs", strconv.Itoa(priorPairs), "-warm", strconv.Itoa(queryTau)}
}

// phase is one stretch of a closed-loop run.
type phase struct {
	dur    time.Duration
	record bool // samples enter the metrics
	traced bool // reads carry ?debug=trace and leave spans
}

// sample is one completed, correct operation.
type sample struct {
	kind   opKind
	phase  int
	dur    time.Duration
	at     time.Duration // completion, since the phase began
	graphs int           // graphs acked, for writes
}

// clientState is what one closed-loop client owns.
type clientState struct {
	id      int
	sched   *schedule
	owned   []int // server IDs this client ingested and has not deleted, oldest first
	samples []sample
	spans   []span
	stage   []stageObs
	tracedN int
}

// closedLoop runs one of the three timed workloads: set up, warm up,
// measure, then score answer quality.
func (r *runner) closedLoop(spec loopSpec) error {
	setupStart := time.Now()
	c, err := newCorpus(r.seed, r.cfg.scale)
	if err != nil {
		return err
	}
	r.corpus = c
	basePath := filepath.Join(r.dir, "base.gsim")
	if err := c.writeGsim(basePath, c.base); err != nil {
		return err
	}
	prep := time.Since(setupStart)

	defer r.retireServing(false)
	dataDir, boots, err := r.bootSetup(append(priorArgs(), "-db", basePath, "-cache", strconv.Itoa(spec.cache)), spec.durable)
	if err != nil {
		return err
	}
	r.boots = boots
	bootMed := medianDur(boots)
	r.set("setup_s", (prep + bootMed).Seconds(), "s")
	r.set("proc.boot_s", bootMed.Seconds(), "s")

	r.live = make(map[int]int, len(c.base))
	for id, idx := range c.base {
		r.live[id] = idx
	}

	window := time.Duration(r.cfg.seconds * float64(time.Second))
	phases := []phase{{dur: warmup}, {dur: window, record: true}}
	if r.cfg.trace {
		// The traced pass splits its time: warm-up, an untraced stretch
		// to compare against, the traced stretch, and the layer ladder.
		phases = []phase{
			{dur: warmup},
			{dur: window / 3, record: true},
			{dur: window / 3, record: true, traced: true},
		}
	}
	cl := newClient(r.srv.base, r.cfg.clients)
	defer cl.close()
	states, cacheDelta, err := r.drive(cl, spec, phases)
	if err != nil {
		return err
	}
	r.loopMetrics(states, phases, cacheDelta)

	r.quality(cl, spec.prefilter, !spec.durable)

	// End of run. A durable server is first SIGKILLed and restarted on its
	// directory: every write the window saw acked must be there again
	// (segments plus WAL replay). It then shuts down gracefully (final
	// checkpoint) so the directory holds what a clean stop leaves.
	recoverS := noMeaning
	if spec.durable {
		r.retireServing(false)
		if r.srv, err = r.boot("-data", dataDir, "-cache", "0"); err != nil {
			return fmt.Errorf("recovery after the window: %w", err)
		}
		r.boots = append(r.boots, r.srv.boot)
		recoverS = r.srv.boot.Seconds()
		// Self-queries go to graphs the window wrote: the WAL holds those.
		r.verifyRecovered(rand.New(rand.NewSource(r.seed^0x1e57)), len(c.base))
	}
	r.set("proc.recover_s", recoverS, "s")
	r.retireServing(spec.durable)
	if spec.durable {
		n, err := dirBytes(dataDir)
		if err != nil {
			return err
		}
		r.set("db.disk_bytes_per_graph", float64(n)/float64(len(r.live)), "B")
	} else {
		r.set("db.disk_bytes_per_graph", noMeaning, "B")
	}
	r.set("rss_peak_mb", r.peak, "MB")
	if r.cfg.trace {
		return r.tracedExtras(basePath)
	}
	return nil
}

// drive runs the phases with cfg.clients closed-loop clients and
// returns their states plus the server's cache counters' change over the
// recorded phases.
func (r *runner) drive(cl *client, spec loopSpec, phases []phase) ([]*clientState, statsReply, error) {
	var total time.Duration
	ends := make([]time.Duration, len(phases))
	for i, p := range phases {
		total += p.dur
		ends[i] = total
	}
	states := make([]*clientState, r.cfg.clients)
	for i := range states {
		states[i] = &clientState{id: i, sched: newSchedule(r.seed, i, r.cfg.clients, spec.mix, spec.zipf, r.corpus)}
	}
	start := time.Now()
	var wg sync.WaitGroup
	for _, cs := range states {
		wg.Add(1)
		go func(cs *clientState) {
			defer wg.Done()
			for {
				at := time.Since(start)
				ph := sort.Search(len(ends), func(i int) bool { return at < ends[i] })
				if ph == len(ends) {
					return
				}
				r.execute(cl, cs, cs.sched.next(), spec, ph, phases[ph], start.Add(ends[ph]))
			}
		}(cs)
	}
	// Server counters at the edges of the recorded phases.
	time.Sleep(time.Until(start.Add(ends[0])))
	before, err := cl.stats()
	if err != nil {
		wg.Wait()
		return nil, statsReply{}, err
	}
	wg.Wait()
	after, err := cl.stats()
	if err != nil {
		return nil, statsReply{}, err
	}
	after.Cache.Hits -= before.Cache.Hits
	after.Cache.Misses -= before.Cache.Misses
	after.Cache.Invalidations -= before.Cache.Invalidations
	after.Server.Shed -= before.Server.Shed
	return states, after, nil
}

// execute performs one operation, checks its answer and records it.
func (r *runner) execute(cl *client, cs *clientState, o op, spec loopSpec, ph int, p phase, phaseEnd time.Time) {
	c := r.corpus
	traced := p.traced && o.kind.read()
	reqID := ""
	if traced {
		reqID = fmt.Sprintf("%s-c%d-%d", r.wl.name, cs.id, cs.tracedN)
		cs.tracedN++
	}
	var rep reply
	acked := 0
	switch o.kind {
	case opSearch:
		rep = cl.do(http.MethodPost, tracePath("/v1/search", traced), searchBody(c.queryJSON[o.queries[0]], "", spec.prefilter), reqID)
	case opTopK:
		rep = cl.do(http.MethodPost, tracePath("/v1/topk", traced), topkBody(c.queryJSON[o.queries[0]]), reqID)
	case opBatch:
		qs := make([][]byte, len(o.queries))
		for i, q := range o.queries {
			qs[i] = c.queryJSON[q]
		}
		rep = cl.do(http.MethodPost, tracePath("/v1/batch", traced), batchBody(qs), reqID)
	case opIngest:
		graphs := make([]wireGraph, len(o.graphs))
		for i, pos := range o.graphs {
			graphs[i] = c.wire(c.pool[pos])
		}
		body, err := ingestBody(graphs)
		if err != nil {
			r.fail("encoding ingest: %v", err)
			return
		}
		rep = cl.do(http.MethodPost, "/v1/graphs", body, "")
	case opDelete:
		if len(cs.owned) == 0 { // only after a failed ingest: the schedule deletes what it ingested
			r.attempt(1)
			r.fail("delete: the client owns no graph")
			return
		}
		rep = cl.do(http.MethodDelete, "/v1/graphs/"+strconv.Itoa(cs.owned[0]), nil, "")
	}
	r.attempt(1)
	if !rep.ok() {
		r.fail("%s: %s", o.kind, rep.fail())
		return
	}
	expectScanned := -1
	if !spec.durable {
		expectScanned = len(c.base) // nothing mutates the read-only workloads
	}
	switch o.kind {
	case opSearch, opTopK:
		var sr searchReply
		if err := json.Unmarshal(rep.body, &sr); err != nil {
			r.fail("%s: decoding reply: %v", o.kind, err)
			return
		}
		if msg := checkReply(o.kind, &sr, expectScanned, traced); msg != "" {
			r.fail("%s query %d: %s", o.kind, o.queries[0], msg)
			return
		}
		if traced {
			cs.trace(r, o.kind, rep, reqID, &sr)
		}
	case opBatch:
		var br batchReply
		if err := json.Unmarshal(rep.body, &br); err != nil || len(br.Results) != len(o.queries) {
			r.fail("batch: decoding reply: %v (%d results)", err, len(br.Results))
			return
		}
		for i := range br.Results {
			if msg := checkReply(opSearch, &br.Results[i], expectScanned, traced); msg != "" {
				r.fail("batch query %d: %s", o.queries[i], msg)
				return
			}
		}
		if traced {
			cs.trace(r, o.kind, rep, reqID, &br.Results[0])
		}
	case opIngest:
		var ir ingestReply
		if err := json.Unmarshal(rep.body, &ir); err != nil || ir.Stored != len(o.graphs) || len(ir.IDs) != len(o.graphs) {
			r.fail("ingest: bad ack %q (%v)", rep.body, err)
			return
		}
		r.mu.Lock()
		for i, id := range ir.IDs {
			r.live[id] = c.pool[o.graphs[i]]
		}
		r.mu.Unlock()
		cs.owned = append(cs.owned, ir.IDs...)
		acked = len(ir.IDs)
	case opDelete:
		r.mu.Lock()
		delete(r.live, cs.owned[0])
		r.mu.Unlock()
		cs.owned = cs.owned[1:]
		acked = 1
	}
	if p.record && !rep.start.Add(rep.dur).After(phaseEnd) {
		cs.samples = append(cs.samples, sample{kind: o.kind, phase: ph, dur: rep.dur, at: p.dur - phaseEnd.Sub(rep.start.Add(rep.dur)), graphs: acked})
	}
}

// checkReply validates one search or top-k result against what any
// correct answer satisfies; it returns "" or the violation.
func checkReply(kind opKind, sr *searchReply, expectScanned int, traced bool) string {
	if expectScanned >= 0 && sr.Scanned != expectScanned {
		return fmt.Sprintf("scanned %d, want %d", sr.Scanned, expectScanned)
	}
	if traced && sr.Stages == nil {
		return "traced reply carries no stages"
	}
	for i, m := range sr.Matches {
		switch kind {
		case opSearch: // ascending unique IDs, each at or over the γ threshold
			if i > 0 && m.Index <= sr.Matches[i-1].Index {
				return "matches not in ascending ID order"
			}
			if m.Score < queryGamma {
				return fmt.Sprintf("match %d scored %v, below gamma", m.Index, m.Score)
			}
		case opTopK: // best first
			if i > 0 && m.Score > sr.Matches[i-1].Score {
				return "top-k not ranked by score"
			}
		}
	}
	if kind == opTopK && len(sr.Matches) != 10 && (expectScanned < 0 || expectScanned >= 10) {
		return fmt.Sprintf("top-k returned %d matches, want 10", len(sr.Matches))
	}
	return ""
}

// trace turns one traced reply into spans and a stage observation.
func (cs *clientState) trace(r *runner, kind opKind, rep reply, reqID string, sr *searchReply) {
	cs.stage = append(cs.stage, stageObs{
		kind: kind, client: rep.dur, elapsed: time.Duration(sr.ElapsedNS),
		scanned: sr.Scanned, matched: len(sr.Matches), st: *sr.Stages,
	})
	if cs.tracedN > maxSpanOps {
		return
	}
	cs.spans = appendRequestSpans(cs.spans, "client."+kind.String(), reqID,
		rep.start.Sub(r.origin).Nanoseconds(), rep.dur.Nanoseconds(), sr.ElapsedNS, sr.Stages, r.cfg.nproc)
}

// appendRequestSpans adds the span tree of one traced request: the
// client's own span and, built from the echoed stage times, the server
// request inside it (centred, as the two clocks share no origin), with
// prepare → scan → merge in sequence and the per-entry prefilter/score
// split inside the scan (summed over workers by the server, so divided
// by their number here). IDs are local to the slice position and made
// unique when the trace is assembled.
func appendRequestSpans(spans []span, name, reqID string, start, dur, elapsed int64, st *wireStages, workers int) []span {
	id := func() int { return len(spans) + 1 }
	root := id()
	spans = append(spans, span{ID: root, Name: name, StartNS: start, EndNS: start + dur, RequestID: reqID})
	if elapsed > dur {
		elapsed = dur
	}
	s0 := start + (dur-elapsed)/2
	srv := id()
	spans = append(spans, span{ID: srv, Parent: root, Name: "server.request", StartNS: s0, EndNS: s0 + elapsed, RequestID: reqID})
	at := s0
	add := func(parent int, name string, d int64) int {
		n := id()
		spans = append(spans, span{ID: n, Parent: parent, Name: name, StartNS: at, EndNS: at + d, RequestID: reqID})
		return n
	}
	add(srv, "gsim.prepare", st.PrepareNS)
	at += st.PrepareNS
	scan := add(srv, "gsim.scan", st.ScanNS)
	scanStart := at
	pre := st.PrefilterNS / int64(workers)
	add(scan, "index.prefilter", pre)
	at += pre
	add(scan, "method.score", st.ScoreNS/int64(workers))
	at = scanStart + st.ScanNS
	add(srv, "gsim.merge", st.MergeNS)
	return spans
}

// loopMetrics derives the window's end-to-end and client metrics.
func (r *runner) loopMetrics(states []*clientState, phases []phase, cache statsReply) {
	// The untraced recorded phase carries the end-to-end figures.
	e2e := -1
	tracedPh := -1
	for i, p := range phases {
		if p.record && !p.traced && e2e < 0 {
			e2e = i
		}
		if p.traced {
			tracedPh = i
		}
	}
	var all, reads, writes, tracedReads []time.Duration
	var window []sample
	byKind := make([][]time.Duration, numOps)
	graphs := 0
	for _, cs := range states {
		for _, s := range cs.samples {
			if s.phase == tracedPh && s.kind.read() {
				tracedReads = append(tracedReads, s.dur)
			}
			if s.phase != e2e {
				continue
			}
			window = append(window, s)
			all = append(all, s.dur)
			byKind[s.kind] = append(byKind[s.kind], s.dur)
			if s.kind.read() {
				reads = append(reads, s.dur)
			} else {
				writes = append(writes, s.dur)
				graphs += s.graphs
			}
		}
		r.spans = append(r.spans, renumber(cs.spans, len(r.spans))...)
		r.stage = append(r.stage, cs.stage...)
	}
	secs := phases[e2e].dur.Seconds()
	sortDurations(all)
	sortDurations(reads)
	sortDurations(writes)
	ops, p50, p99 := float64(len(all))/secs, ms(percentile(all, 0.50)), ms(percentile(all, 0.99))
	if n := int(phases[e2e].dur / sliceLen); n >= minSlices {
		if o, m, t, ok := sliceFigures(window, n); ok {
			ops, p50, p99 = o, m, t
		}
	}
	r.set("ops_s", ops, "1/s")
	r.set("p50_ms", p50, "ms")
	r.set("p99_ms", p99, "ms")
	r.counts["window_ops"] = len(all)
	r.counts["window_reads"] = len(reads)
	r.counts["window_writes"] = len(writes)

	r.set("client.read_ops_s", float64(len(reads))/secs, "1/s")
	r.set("client.read_p50_ms", ms(percentile(reads, 0.50)), "ms")
	r.set("client.read_p99_ms", ms(percentile(reads, 0.99)), "ms")
	r.set("client.read_p999_ms", ms(percentile(reads, 0.999)), "ms")
	r.set("client.write_graphs_s", float64(graphs)/secs, "1/s")
	r.set("client.write_p50_ms", ms(percentile(writes, 0.50)), "ms")
	r.set("client.write_p99_ms", ms(percentile(writes, 0.99)), "ms")
	for k := opKind(0); k < numOps; k++ {
		r.set("client."+k.String()+"_p50_ms", ms(percentile(sortDurations(byKind[k]), 0.50)), "ms")
	}
	ratio := noMeaning
	if len(tracedReads) > 0 && len(reads) > 0 {
		ratio = float64(percentile(sortDurations(tracedReads), 0.50)) / float64(percentile(reads, 0.50))
	}
	r.set("trace.overhead_ratio", ratio, "ratio")

	hit := noMeaning
	if n := cache.Cache.Hits + cache.Cache.Misses; n > 0 {
		hit = float64(cache.Cache.Hits) / float64(n)
	}
	r.set("qcache.hit_ratio", hit, "ratio")
	r.set("qcache.invalidations", float64(cache.Cache.Invalidations), "count")
	r.set("server.shed", float64(cache.Server.Shed), "count")
}

// sliceFigures cuts the window into n slices of sliceLen and returns the
// upper quartile of the slices' throughput and the lower quartiles of
// their median and 99th-percentile latency: what the better quarter of
// the window reaches. On a shared host the other tenants slow the
// program in bursts of seconds to tens of seconds and never speed it up,
// so the better slices show the program's own speed and repeat from run
// to run where the whole window does not, while a slower program is
// slower in every slice and moves these figures as it moves the others.
func sliceFigures(window []sample, n int) (ops, p50, p99 float64, ok bool) {
	bySlice := make([][]time.Duration, n)
	for _, s := range window {
		if i := int(s.at / sliceLen); i >= 0 && i < n {
			bySlice[i] = append(bySlice[i], s.dur)
		}
	}
	var rates, p50s, p99s []float64
	for _, d := range bySlice {
		rates = append(rates, float64(len(d))/sliceLen.Seconds())
		if len(d) > 0 { // a slice in which nothing completed has no latency
			sortDurations(d)
			p50s = append(p50s, ms(percentile(d, 0.50)))
			p99s = append(p99s, ms(percentile(d, 0.99)))
		}
	}
	if len(p50s) < minSlices {
		return 0, 0, 0, false
	}
	_, ops = quartiles(rates)
	p50, _ = quartiles(p50s)
	p99, _ = quartiles(p99s)
	return ops, p50, p99, true
}

// renumber shifts span IDs (and parents) by base so spans gathered from
// several clients stay unique.
func renumber(spans []span, base int) []span {
	out := make([]span, len(spans))
	for i, s := range spans {
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		out[i] = s
	}
	return out
}
