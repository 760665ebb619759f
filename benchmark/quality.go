package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// quality scores the server's answers to qualityN queries against the
// generator's exact-GED truth, restricted to the graphs now stored
// (r.live), and sets f1. It runs outside the timed window, and on the
// same queries whatever the seed — every k-th of the corpus's, so that
// all clusters, the insert pool's included, are covered: answer quality
// is a property of the program and the corpus, not of the traffic, so f1
// repeats exactly wherever the stored set does. The first consistencyN
// of them are asked both with and without the prefilter: the filtered
// answer must be a subset of the unfiltered one, with equal scores, and
// must keep every true match the unfiltered answer has (prefilter
// admissibility). In a traced run the requests carry ?debug=trace, so
// the per-search scanned / pruned / matched counts come from this fixed
// sample and repeat exactly.
func (r *runner) quality(cl *client, prefilter, fixedSize bool) {
	c := r.corpus
	sample := make([]int, min(qualityN, len(c.queries)))
	for i := range sample {
		sample[i] = i * len(c.queries) / len(sample)
	}
	stored := make(map[int][]int, len(r.live)) // collection index → server IDs holding it
	for id, idx := range r.live {
		stored[idx] = append(stored[idx], id)
	}
	expectScanned := -1
	if fixedSize {
		expectScanned = len(r.live)
	}
	var tp, fp, fn atomic.Int64
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < r.cfg.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sample) {
					return
				}
				q := sample[i]
				sr, rep, ok := r.ask(cl, q, prefilter, expectScanned, r.cfg.trace)
				if !ok {
					continue
				}
				if r.cfg.trace {
					mu.Lock()
					r.stage = append(r.stage, stageObs{
						quality: true, kind: opSearch, client: rep.dur, elapsed: time.Duration(sr.ElapsedNS),
						scanned: sr.Scanned, matched: len(sr.Matches), st: *sr.Stages,
					})
					mu.Unlock()
				}
				truth := make(map[int]bool, len(c.truth[q]))
				want := 0
				for _, idx := range c.truth[q] {
					truth[idx] = true
					want += len(stored[idx])
				}
				hit := 0
				for _, m := range sr.Matches {
					idx, known := r.live[m.Index]
					switch {
					case !known:
						r.fail("query %d matched ID %d, which is not stored", q, m.Index)
					case truth[idx]:
						hit++
					default:
						fp.Add(1)
					}
				}
				tp.Add(int64(hit))
				fn.Add(int64(want - hit))
				if i < consistencyN {
					other, _, ok := r.ask(cl, q, !prefilter, expectScanned, false)
					if !ok {
						continue
					}
					filtered, full := sr, other
					if !prefilter {
						filtered, full = other, sr
					}
					if msg := admissible(filtered, full, func(id int) bool { return truth[r.live[id]] }); msg != "" {
						r.fail("query %d: %s", q, msg)
					}
				}
			}
		}()
	}
	wg.Wait()
	t, p, n := float64(tp.Load()), float64(fp.Load()), float64(fn.Load())
	r.counts["quality_queries"] = len(sample)
	r.set("f1", 2*t/(2*t+p+n), "ratio")
	r.set("quality.recall", t/(t+n), "ratio")
	r.set("quality.precision", t/(t+p), "ratio")
}

// ask sends one GBDA search and applies the shape checks; ok is false
// (and the failure counted) when the reply is unusable.
func (r *runner) ask(cl *client, q int, prefilter bool, expectScanned int, traced bool) (*searchReply, reply, bool) {
	r.attempt(1)
	rep := cl.do(http.MethodPost, tracePath("/v1/search", traced), searchBody(r.corpus.queryJSON[q], "", prefilter), "")
	if !rep.ok() {
		r.fail("quality search: %s", rep.fail())
		return nil, rep, false
	}
	var sr searchReply
	if err := json.Unmarshal(rep.body, &sr); err != nil {
		r.fail("quality search: decoding reply: %v", err)
		return nil, rep, false
	}
	if msg := checkReply(opSearch, &sr, expectScanned, traced); msg != "" {
		r.fail("quality search, query %d: %s", q, msg)
		return nil, rep, false
	}
	return &sr, rep, true
}

// admissible checks a prefiltered answer against the unfiltered answer
// to the same query: a subset with identical scores that loses no true
// match. It returns "" or the violation.
func admissible(filtered, full *searchReply, isTrue func(id int) bool) string {
	score := make(map[int]float64, len(full.Matches))
	for _, m := range full.Matches {
		score[m.Index] = m.Score
	}
	kept := make(map[int]bool, len(filtered.Matches))
	for _, m := range filtered.Matches {
		s, ok := score[m.Index]
		if !ok {
			return fmt.Sprintf("prefiltered answer holds ID %d, which the full scan does not", m.Index)
		}
		if s != m.Score {
			return fmt.Sprintf("ID %d scored %v with prefilter, %v without", m.Index, m.Score, s)
		}
		kept[m.Index] = true
	}
	for _, m := range full.Matches {
		if isTrue(m.Index) && !kept[m.Index] {
			return fmt.Sprintf("prefilter dropped true match %d", m.Index)
		}
	}
	return ""
}
