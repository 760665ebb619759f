package core

import (
	"sync"
	"sync/atomic"
)

// PosteriorTable is the online form of the posterior Φ of Algorithm 1: a
// dense [v][ϕ] table of Pr[GED ≤ τ̂ | GBD = ϕ] values, precomputed at
// search-prepare time so that the per-pair hot path is two array indexings
// — no mutex, no allocation, no GMM evaluation. The table exists because
// everything expensive in Algorithm 1 (Λ1, Λ2, Λ3) is an offline artifact:
// Φ depends only on (v, ϕ, τ̂) and the variant configuration, and the
// Section VI-B short circuit bounds ϕ ≤ Support(τ̂) = 2τ̂, so the whole
// reachable domain is |sizes| × (2τ̂+1) floats.
//
// Rows are published through an atomic pointer: lookups are lock-free and
// allocation-free in steady state. A lookup for an extended size with no
// prebuilt row (a query larger than every graph the table was built for)
// falls back to a mutex-guarded copy-on-write miss path that computes the
// row once and republish es the row slice, so the very next lookup for
// that size is a table hit again.
//
// Obtain tables through Workspace.PosteriorTable, which caches them per
// (τ̂, FixedV) so repeated searches with the same configuration share one
// table (the V2 weight is a lookup-time parameter, see PosteriorVGBD).
type PosteriorTable struct {
	s   *Searcher
	tau int // query threshold the table is dimensioned for (≤ workspace τ̂)

	rows atomic.Pointer[[][]float64] // [v][ϕ]; nil row = size not built
	mu   sync.Mutex                  // serialises miss-path row builds
}

// NewPosteriorTable builds a posterior table for the searcher's
// configuration at threshold tau (clamped to the workspace τ̂), with rows
// prebuilt for every extended size in sizes. For a FixedV (GBDA-V1)
// searcher the observation size is constant, so exactly one row is built
// regardless of sizes.
func NewPosteriorTable(s *Searcher, tau int, sizes []int) *PosteriorTable {
	if tau > s.WS.TauMax {
		tau = s.WS.TauMax
	}
	t := &PosteriorTable{s: s, tau: tau}
	if s.FixedV > 0 {
		sizes = []int{s.FixedV}
	}
	maxV := 0
	for _, v := range sizes {
		if v > maxV {
			maxV = v
		}
	}
	rows := make([][]float64, maxV+1)
	for _, v := range sizes {
		if v >= 0 && rows[v] == nil {
			rows[v] = t.buildRow(v)
		}
	}
	t.rows.Store(&rows)
	return t
}

// buildRow tabulates Φ(v, ϕ) for ϕ ∈ [0, 2τ̂] through the searcher's exact
// PosteriorTau path, then retires the model's ϕ-cache: every inner table
// the row construction pinned is now folded into the row, so keeping the
// O(τ̂·m) slices around would only duplicate the answer in a slower form.
func (t *PosteriorTable) buildRow(v int) []float64 {
	row := make([]float64, Support(t.tau)+1)
	for phi := range row {
		row[phi] = t.s.PosteriorTau(v, phi, t.tau)
	}
	ev := v
	if t.s.FixedV > 0 {
		ev = t.s.FixedV
	}
	t.s.WS.Model(ev).ReleaseInner()
	return row
}

// Tau reports the query threshold the table was built for.
func (t *PosteriorTable) Tau() int { return t.tau }

// Posterior returns Φ = Pr[GED ≤ τ̂ | GBD = ϕ] for a pair whose larger
// vertex count is vmax. Steady state is two array indexings; an unseen
// size takes the miss path once.
func (t *PosteriorTable) Posterior(vmax, phi int) float64 {
	if phi < 0 || phi > Support(t.tau) {
		// Λ1(τ,ϕ) = 0 for every τ ≤ τ̂: the Section VI-B short circuit,
		// applied before any table access.
		return 0
	}
	v := vmax
	if t.s.FixedV > 0 {
		v = t.s.FixedV
	}
	rows := *t.rows.Load()
	if v >= 0 && v < len(rows) {
		if row := rows[v]; row != nil {
			return row[phi]
		}
	}
	return t.miss(v)[phi]
}

// PosteriorVGBD is the GBDA-V2 observation path: VGBD = vmax − w·|B∩B|
// (Eq. 26) rounded to the nearest integer, then the table lookup. The
// weight is a lookup-time parameter, not table state: rows never depend
// on it, so every V2 weight shares one table (the cache key deliberately
// omits it — a client-supplied weight must not grow server-side state).
// The rounding is RoundVGBD, shared with Searcher.PosteriorVGBDTau, so
// table and direct results agree bit for bit.
func (t *PosteriorTable) PosteriorVGBD(vmax, intersect int, w float64) float64 {
	return t.Posterior(vmax, RoundVGBD(vmax, intersect, w))
}

// miss builds (or finds, if another goroutine won the race) the row for
// size v and publishes a grown copy of the row slice. Readers keep their
// loaded snapshot; the next lookup sees the new row lock-free.
func (t *PosteriorTable) miss(v int) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	rows := *t.rows.Load()
	if v < len(rows) && rows[v] != nil {
		return rows[v]
	}
	n := len(rows)
	if v >= n {
		n = v + 1
	}
	grown := make([][]float64, n)
	copy(grown, rows)
	grown[v] = t.buildRow(v)
	t.rows.Store(&grown)
	return grown[v]
}

// Stats reports the built rows and their payload bytes (diagnostics; the
// serving layer surfaces the aggregate in /v1/stats).
func (t *PosteriorTable) Stats() (rows int, bytes int64) {
	for _, row := range *t.rows.Load() {
		if row != nil {
			rows++
			bytes += int64(len(row)) * 8
		}
	}
	return rows, bytes
}
