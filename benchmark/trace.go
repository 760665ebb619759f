package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// tracedExtras is the part of a traced pass that follows the workload:
// against a fresh read-only gsimd holding the base (the workload's own
// server may have been written to) it runs the answer checker and the
// in-process layer ladder, then folds the echoed stage times into the
// stages.*, server.* and loopback.* metrics.
func (r *runner) tracedExtras(basePath string) error {
	g, err := r.boot(append(priorArgs(), "-db", basePath, "-cache", "0")...)
	if err != nil {
		return err
	}
	defer g.kill()
	cl := newClient(g.base, r.cfg.clients)
	defer cl.close()
	ref, err := openReference(basePath)
	if err != nil {
		return err
	}
	defer ref.Close()
	r.checkAnswers(cl, ref)
	if err := r.ladder(cl, ref); err != nil {
		return err
	}
	r.stageMetrics()
	return nil
}

// stageMetrics summarises the server's echoed breakdowns. Counts come
// from the fixed quality sample, so on the read-only workloads they
// repeat exactly; times come from the traced window's searches (from the
// quality sample where the workload's window has no reads).
func (r *runner) stageMetrics() {
	var sample, window []stageObs
	for _, o := range r.stage {
		switch {
		case o.quality:
			sample = append(sample, o)
		case o.kind == opSearch:
			window = append(window, o)
		}
	}
	var scanned, pruned, matched int
	for _, o := range sample {
		scanned += o.scanned
		pruned += o.st.Pruned
		matched += o.matched
	}
	per := func(total int) float64 { return float64(total) / float64(max(len(sample), 1)) }
	r.set("stages.scanned_per_search", per(scanned), "count")
	r.set("stages.pruned_per_search", per(pruned), "count")
	r.set("stages.matched_per_search", per(matched), "count")

	if len(window) == 0 {
		window = sample
	}
	r.counts["traced_searches"] = len(window)
	p50 := func(of func(stageObs) int64) float64 {
		d := make([]time.Duration, len(window))
		for i, o := range window {
			d[i] = time.Duration(of(o))
		}
		return us(percentile(sortDurations(d), 0.5))
	}
	r.set("stages.prepare_us_p50", p50(func(o stageObs) int64 { return o.st.PrepareNS }), "us")
	r.set("stages.prefilter_us_p50", p50(func(o stageObs) int64 { return o.st.PrefilterNS }), "us")
	r.set("stages.score_us_p50", p50(func(o stageObs) int64 { return o.st.ScoreNS }), "us")
	r.set("stages.scan_us_p50", p50(func(o stageObs) int64 { return o.st.ScanNS }), "us")
	r.set("stages.merge_us_p50", p50(func(o stageObs) int64 { return o.st.MergeNS }), "us")
	r.set("server.unaccounted_us_p50", p50(func(o stageObs) int64 {
		return int64(o.elapsed) - o.st.PrepareNS - o.st.ScanNS - o.st.MergeNS
	}), "us")
	r.set("loopback.overhead_us", p50(func(o stageObs) int64 { return int64(o.client - o.elapsed) }), "us")
}

// traceFile is what a traced pass leaves in benchmark/out/.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// SelfMS sums, per span name, the spans' self time: duration minus
	// what their child spans cover.
	SelfMS map[string]float64 `json:"self_ms"`
	Count  map[string]int     `json:"count"`
	Spans  []span             `json:"spans"`
}

// writeTrace writes the run's spans, kept in memory until now, to
// benchmark/out/trace-<workload>.json.
func (r *runner) writeTrace() error {
	tf := traceFile{Workload: r.wl.name, Seed: r.seed, SelfMS: map[string]float64{}, Count: map[string]int{}, Spans: r.spans}
	self := selfTimes(r.spans)
	for _, s := range r.spans {
		tf.SelfMS[s.Name] += float64(self[s.ID]) / 1e6
		tf.Count[s.Name]++
	}
	if err := os.MkdirAll(r.cfg.outDir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(r.cfg.outDir, "trace-"+r.wl.name+".json"), b, 0o644)
}
