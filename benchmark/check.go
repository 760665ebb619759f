package main

import (
	"fmt"
	"os"

	"gsim"
)

// checkerN is how many seed-fixed queries the answer checker compares.
const checkerN = 200

// openReference builds, in this process, the database gsimd builds from
// the same flags: base.gsim loaded as text, priors fitted with the same
// τ̂ ceiling and pair count, the posterior table warmed.
func openReference(basePath string) (*gsim.Database, error) {
	f, err := os.Open(basePath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d := gsim.New(gsim.WithName("reference"))
	if _, err := d.LoadText(f); err != nil {
		return nil, fmt.Errorf("reference: loading %s: %w", basePath, err)
	}
	if err := d.BuildPriors(gsim.OfflineConfig{TauMax: priorsTau, SamplePairs: priorPairs}); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	if err := d.WarmPosteriorTables(queryTau); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return d, nil
}

// build fills a builder of d (NewGraph or NewQuery) with collection
// member idx, the way the server builds it from the wire form.
func (c *corpus) build(newBuilder func(name string) *gsim.GraphBuilder, idx int) (*gsim.GraphBuilder, error) {
	w := c.wire(idx)
	b := newBuilder(w.Name)
	for _, label := range w.Vertices {
		b.AddVertex(label)
	}
	for _, e := range w.Edges {
		if err := b.AddEdge(e.U, e.V, e.Label); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// libraryQuery builds query position q against d.
func (c *corpus) libraryQuery(d *gsim.Database, q int) (*gsim.Query, error) {
	b, err := c.build(d.NewQuery, c.queries[q])
	if err != nil {
		return nil, err
	}
	return b.Query(), nil
}

// checkAnswers is the answer checker: for checkerN seed-fixed queries
// the server's unfiltered /v1/search answer must equal the library's
// Database.Search on the identically built reference — same IDs, same
// scores — and its prefiltered answer must be an admissible subset of
// it. Every mismatch is a failed operation.
func (r *runner) checkAnswers(cl *client, ref *gsim.Database) {
	c := r.corpus
	for _, q := range c.sample(checkerN) {
		lq, err := c.libraryQuery(ref, q)
		if err != nil {
			r.fail("checker: building query %d: %v", q, err)
			continue
		}
		want, err := ref.Search(lq, gsim.SearchOptions{Tau: queryTau, Gamma: queryGamma})
		r.attempt(1)
		if err != nil {
			r.fail("checker: library search %d: %v", q, err)
			continue
		}
		full, _, ok := r.ask(cl, q, false, len(c.base), false)
		if !ok {
			continue
		}
		if msg := sameAnswer(full, want); msg != "" {
			r.fail("checker: query %d: server and library disagree: %s", q, msg)
			continue
		}
		filtered, _, ok := r.ask(cl, q, true, len(c.base), false)
		if !ok {
			continue
		}
		truth := make(map[int]bool, len(c.truth[q]))
		for _, idx := range c.truth[q] {
			truth[idx] = true
		}
		if msg := admissible(filtered, full, func(id int) bool { return truth[c.base[id]] }); msg != "" {
			r.fail("checker: query %d: %s", q, msg)
		}
	}
	r.counts["checker_queries"] = min(checkerN, len(c.order))
}

// sameAnswer compares a server reply with a library result: IDs and
// scores, in order.
func sameAnswer(got *searchReply, want *gsim.Result) string {
	if len(got.Matches) != len(want.Matches) {
		return fmt.Sprintf("%d matches over HTTP, %d in process", len(got.Matches), len(want.Matches))
	}
	for i, m := range want.Matches {
		if g := got.Matches[i]; g.Index != m.Index || g.Score != m.Score {
			return fmt.Sprintf("match %d is (%d, %v) over HTTP, (%d, %v) in process", i, g.Index, g.Score, m.Index, m.Score)
		}
	}
	return ""
}
