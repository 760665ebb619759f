package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// ingestRecover is the fixed-work workload: the generator's DB graphs go
// through /v1/graphs in batches of ingestBatch over ingestRounds equal
// rounds; after every round gsimd is SIGKILLed right after the last ack
// (after even rounds a checkpoint is forced first, so recovery alternates
// between WAL replay on top of segments and segments alone), restarted,
// and the time from exec to /readyz 200 taken. --seconds fixes the
// amount of work (ingestPerSec graphs per second of budget, capped by the
// corpus), not a deadline, so every run with one seed does identical
// work. This tests process death only; power loss (discarding unflushed
// writes) stays with the repository's faultfs recovery tests.
func (r *runner) ingestRecover() error {
	setupStart := time.Now()
	c, err := newCorpus(r.seed, r.cfg.scale)
	if err != nil {
		return err
	}
	r.corpus = c
	rng := rand.New(rand.NewSource(r.seed ^ 0x1e57))
	members := append([]int(nil), c.ds.DBGraphs...)
	rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
	if budget := int(r.cfg.seconds * ingestPerSec); budget < len(members) {
		members = members[:max(budget, ingestBatch*ingestRounds)]
	}
	var batches [][]int
	var bodies [][]byte
	for lo := 0; lo < len(members); lo += ingestBatch {
		hi := min(lo+ingestBatch, len(members))
		graphs := make([]wireGraph, hi-lo)
		for i, idx := range members[lo:hi] {
			graphs[i] = c.wire(idx)
		}
		body, err := ingestBody(graphs)
		if err != nil {
			return err
		}
		batches = append(batches, members[lo:hi])
		bodies = append(bodies, body)
	}
	prep := time.Since(setupStart)

	// Set-up boots: an empty durable directory, several times over.
	defer r.retireServing(false)
	dataDir, empty, err := r.bootSetup([]string{"-cache", "0"}, true)
	if err != nil {
		return err
	}
	r.set("setup_s", (prep + medianDur(empty)).Seconds(), "s")
	r.set("proc.boot_s", medianDur(empty).Seconds(), "s")

	r.live = make(map[int]int, len(members))
	state := &clientState{}
	var ingestWall time.Duration
	for round := 0; round < ingestRounds; round++ {
		lo, hi := round*len(batches)/ingestRounds, (round+1)*len(batches)/ingestRounds
		cl := newClient(r.srv.base, r.cfg.clients)
		start := time.Now()
		var wg sync.WaitGroup
		var mu sync.Mutex
		for w := 0; w < r.cfg.clients; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for b := lo + w; b < hi; b += r.cfg.clients {
					r.attempt(1)
					rep := cl.do(http.MethodPost, "/v1/graphs", bodies[b], "")
					var ir ingestReply
					if !rep.ok() {
						r.fail("ingest: %s", rep.fail())
						continue
					}
					if err := json.Unmarshal(rep.body, &ir); err != nil || len(ir.IDs) != len(batches[b]) {
						r.fail("ingest: bad ack %q (%v)", rep.body, err)
						continue
					}
					mu.Lock()
					for i, id := range ir.IDs {
						r.live[id] = batches[b][i]
					}
					state.samples = append(state.samples, sample{kind: opIngest, dur: rep.dur, at: ingestWall + rep.start.Add(rep.dur).Sub(start), graphs: len(ir.IDs)})
					if r.cfg.trace && len(state.spans) < maxSpanOps {
						at := rep.start.Sub(r.origin).Nanoseconds()
						state.spans = append(state.spans, span{ID: len(state.spans) + 1, Name: "client.ingest", StartNS: at, EndNS: at + rep.dur.Nanoseconds()})
					}
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		ingestWall += time.Since(start)
		if round%2 == 1 {
			r.attempt(1)
			if rep := cl.do(http.MethodPost, "/v1/admin/checkpoint", nil, ""); !rep.ok() {
				r.fail("checkpoint: %s", rep.fail())
			}
		}
		cl.close()
		r.retireServing(false) // SIGKILL right after the last ack
		if r.srv, err = r.boot("-data", dataDir, "-cache", "0"); err != nil {
			return fmt.Errorf("recovery after round %d: %w", round+1, err)
		}
		r.boots = append(r.boots, r.srv.boot)
		r.verifyRecovered(rng, 0)
	}
	var sum time.Duration
	for _, b := range r.boots {
		sum += b
	}
	r.set("proc.recover_s", sum.Seconds()/float64(len(r.boots)), "s")
	r.loopMetrics([]*clientState{state}, []phase{{dur: ingestWall, record: true}}, statsReply{})

	// A graceful stop leaves the directory a clean shutdown would; the
	// last boot fits priors over the recovered graphs so that GBDA
	// answers from recovered data can be scored against the truth.
	r.retireServing(true)
	n, err := dirBytes(dataDir)
	if err != nil {
		return err
	}
	r.set("db.disk_bytes_per_graph", float64(n)/float64(len(r.live)), "B")
	if r.srv, err = r.boot(append(priorArgs(), "-data", dataDir, "-cache", "0")...); err != nil {
		return err
	}
	cl := newClient(r.srv.base, r.cfg.clients)
	r.quality(cl, true, true)
	cl.close()
	r.retireServing(false)
	r.set("rss_peak_mb", r.peak, "MB")
	if r.cfg.trace {
		basePath := filepath.Join(r.dir, "base.gsim")
		if err := c.writeGsim(basePath, c.base); err != nil {
			return err
		}
		return r.tracedExtras(basePath)
	}
	return nil
}

// verifyRecovered checks the restarted server against the acks: the
// graph count matches, and selfQueries stored graphs with an ID of at
// least minID (where there are any), asked as LSAP queries with
// prefilter, each find their own ID. A missing acked graph is a failed
// operation.
func (r *runner) verifyRecovered(rng *rand.Rand, minID int) {
	cl := newClient(r.srv.base, 1)
	defer cl.close()
	r.attempt(1)
	st, err := cl.stats()
	if err != nil {
		r.fail("stats after recovery: %v", err)
		return
	}
	if st.Database.Graphs != len(r.live) {
		r.fail("recovered %d graphs, %d were acked", st.Database.Graphs, len(r.live))
	}
	ids := make([]int, 0, len(r.live))
	for id := range r.live {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	if from := sort.SearchInts(ids, minID); from < len(ids) {
		ids = ids[from:]
	}
	for i := 0; i < selfQueries; i++ {
		id := ids[rng.Intn(len(ids))]
		q, err := json.Marshal(r.corpus.wire(r.live[id]))
		if err != nil {
			r.fail("encoding self-query: %v", err)
			continue
		}
		r.attempt(1)
		rep := cl.do(http.MethodPost, "/v1/search", searchBody(q, "lsap", true), "")
		var sr searchReply
		if !rep.ok() {
			r.fail("self-query %d: %s", id, rep.fail())
			continue
		}
		if err := json.Unmarshal(rep.body, &sr); err != nil {
			r.fail("self-query %d: %v", id, err)
			continue
		}
		found := false
		for _, m := range sr.Matches {
			found = found || m.Index == id
		}
		if !found {
			r.fail("acked graph %d is not found after recovery", id)
		}
	}
}
