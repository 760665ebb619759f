package method

import (
	"sync/atomic"

	"gsim/internal/db"
)

// Verdict is the outcome of scoring one database entry against one query
// of a batch. Skip marks a pair the caller excluded before scoring; it is
// left untouched by ScoreEntry. benchmark/ladder.go is its only non-test
// caller.
type Verdict struct {
	Skip  bool
	Keep  bool
	Score float64
}

// BatchScorer scores one database entry against a whole query workload in
// a single call: Prepare, then PrepareBatch once with the workload, then
// ScoreEntry once per entry, filling out[k] for every query k whose slot
// does not carry Skip. benchmark/ladder.go is its only non-test caller.
type BatchScorer interface {
	Scorer
	PrepareBatch(queries []*Query) error
	ScoreEntry(e *db.Entry, out []Verdict) error
}

// AsBatch adapts s to BatchScorer with a pairwise loop over Score; the
// bool is always false, since no scorer shares per-entry work across
// queries. benchmark/ladder.go is its only non-test caller.
func AsBatch(s Scorer) (BatchScorer, bool) {
	return &batchFallback{Scorer: s}, false
}

// batchFallback adapts a plain Scorer to the BatchScorer shape by scoring
// each (query, entry) pair exactly as a search would.
type batchFallback struct {
	Scorer
	queries []*Query
}

func (f *batchFallback) PrepareBatch(queries []*Query) error {
	f.queries = queries
	return nil
}

func (f *batchFallback) ScoreEntry(e *db.Entry, out []Verdict) error {
	for k, q := range f.queries {
		if out[k].Skip {
			continue
		}
		keep, score, err := f.Scorer.Score(q, e)
		if err != nil {
			return err
		}
		out[k] = Verdict{Keep: keep, Score: score}
	}
	return nil
}

// decompCounter is the test hook behind columns_test.go's cancellation
// check: when set, every Score call counts one as it starts, so a test can
// tell how many pairs a scan began after it was cancelled. Nil (the
// default) keeps the hot path free of contended atomics.
var decompCounter atomic.Pointer[atomic.Int64]

// SetDecompCounter installs (or, with nil, removes) the Score-call
// counter. Test-only.
func SetDecompCounter(c *atomic.Int64) { decompCounter.Store(c) }

// countEntryDecomp records one started Score call.
func countEntryDecomp() {
	if c := decompCounter.Load(); c != nil {
		c.Add(1)
	}
}
