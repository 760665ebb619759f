package core

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"gsim/internal/prob"
)

// GBDPrior is the Λ2 of Algorithm 1: the prior distribution of GBD values,
// modelled by a Gaussian Mixture over GBDs of sampled graph pairs
// (Section V-B) and discretised with the continuity correction of Eq. (14).
type GBDPrior struct {
	Mix *prob.GMM
	// Floor bounds Pr[GBD = ϕ] away from zero so the Λ3/Λ2 ratio of
	// Algorithm 1 stays finite for ϕ values outside the sampled support.
	Floor float64
}

// DefaultPriorFloor is the probability floor applied by FitGBDPrior.
const DefaultPriorFloor = 1e-9

// FitGBDPrior learns the GBD prior from sampled pair distances with a
// K-component GMM (K = 0 selects the default of 3).
func FitGBDPrior(samples []float64, k int) (*GBDPrior, error) {
	if len(samples) == 0 {
		return nil, errors.New("core: no GBD samples to fit prior")
	}
	mix, err := prob.FitGMM(samples, prob.GMMConfig{K: k})
	if err != nil {
		return nil, err
	}
	return &GBDPrior{Mix: mix, Floor: DefaultPriorFloor}, nil
}

// Prob returns Pr[GBD = ϕ] = ∫_{ϕ−½}^{ϕ+½} f(φ) dφ (Eq. 14), floored.
func (p *GBDPrior) Prob(phi float64) float64 {
	pr := p.Mix.DiscreteProb(phi)
	if pr < p.Floor {
		return p.Floor
	}
	return pr
}

// GEDPrior computes and caches the Λ3 of Algorithm 1: the Jeffreys prior
// over GED values (Section V-C, Eq. 15–16),
//
//	Pr[GED = τ] ∝ sqrt( Σ_{ϕ=0}^{2τ} Λ1(τ,ϕ) · Z(τ,ϕ)² ),
//
// where Z is the score function ∂ ln Pr[GBD|GED]/∂GED (Eq. 17). As the
// paper notes, the value depends only on τ and v = |V'1|, so one table per
// extended size is precomputed offline and looked up in O(1) online.
//
// Deviation (DESIGN.md §4): probabilities are normalised per v over
// τ ∈ [0, τ̂]; the paper's global 1/(k1·k2) constant does not make the
// distribution sum to one.
func (m *Model) GEDPrior() []float64 {
	m.mu.Lock()
	if m.prior != nil {
		p := m.prior
		m.mu.Unlock()
		return p
	}
	m.mu.Unlock()

	tm := m.TauMax
	fisher := make([]float64, tm+1)
	for phi := 0; phi <= 2*tm; phi++ {
		vals, ders := m.Lambda1Deriv(phi)
		for tau := 0; tau <= tm; tau++ {
			if phi > 2*tau {
				// Eq. (16) sums ϕ only up to 2τ: one edit operation
				// changes at most two branches.
				continue
			}
			if vals[tau] <= 0 {
				continue
			}
			var z float64
			if m.wildDeriv {
				// Large-v regime: the analytic extension is untrustworthy
				// (see wildDeriv); score by discrete log-differences.
				switch {
				case tau < tm && vals[tau+1] > 0:
					z = math.Log(vals[tau+1] / vals[tau])
				case tau > 0 && vals[tau-1] > 0:
					z = math.Log(vals[tau] / vals[tau-1])
				default:
					continue
				}
			} else {
				z = ders[tau] / vals[tau]
			}
			fisher[tau] += vals[tau] * z * z
		}
	}
	p := make([]float64, tm+1)
	var sum float64
	for tau := range p {
		p[tau] = math.Sqrt(fisher[tau])
		sum += p[tau]
	}
	if sum > 0 {
		for tau := range p {
			p[tau] /= sum
		}
	} else {
		// Degenerate model (e.g. v = 0): fall back to uniform.
		for tau := range p {
			p[tau] = 1 / float64(tm+1)
		}
	}
	m.mu.Lock()
	m.prior = p
	m.mu.Unlock()
	return p
}

// Workspace caches Models per extended size v so that searches touching
// many graph sizes build each model once, and posterior tables per search
// configuration so that repeated searches share one table. Safe for
// concurrent use.
type Workspace struct {
	Params
	mu     sync.Mutex
	models map[int]*Model

	tmu    sync.Mutex
	tables map[tableKey]*tableSlot
}

// tableKey identifies one posterior-table configuration: the query
// threshold plus the only variant knob that changes Φ's value — V1's
// fixed size. The V2 weight is deliberately NOT part of the key: it only
// maps the observation (intersection size → ϕ) at lookup time and never
// enters the rows, so keying on it would let query traffic with arbitrary
// weights grow the cache without bound. The GBD prior is not part of the
// key because a Workspace and its prior are built together (see
// gsim.Database.BuildPriors): one workspace never serves two priors.
type tableKey struct {
	tau    int
	fixedV int
}

// tableSlot is one cache entry: the once gate lets distinct
// configurations build concurrently while same-key callers share a single
// build, and the atomic pointer lets TableStats observe slots without
// racing an in-flight build.
type tableSlot struct {
	once sync.Once
	t    atomic.Pointer[PosteriorTable]
}

// NewWorkspace returns an empty model cache for the given parameters.
func NewWorkspace(p Params) *Workspace {
	return &Workspace{Params: p, models: make(map[int]*Model), tables: make(map[tableKey]*tableSlot)}
}

// PosteriorTable returns the cached posterior table for the searcher's
// configuration at threshold tau, building it (with rows for every size in
// sizes) on first use. s must have been assembled over this workspace.
// The build — the only expensive part — runs once per configuration,
// outside the tables mutex, so a slow build never blocks lookups of other
// configurations; see PosteriorTable for the per-pair lookup contract.
func (w *Workspace) PosteriorTable(s *Searcher, tau int, sizes []int) *PosteriorTable {
	if tau > w.TauMax {
		tau = w.TauMax
	}
	key := tableKey{tau: tau, fixedV: s.FixedV}
	w.tmu.Lock()
	slot, ok := w.tables[key]
	if !ok {
		slot = &tableSlot{}
		w.tables[key] = slot
	}
	w.tmu.Unlock()
	slot.once.Do(func() { slot.t.Store(NewPosteriorTable(s, tau, sizes)) })
	return slot.t.Load()
}

// TableStats reports the cached posterior tables and their aggregate row
// payload in bytes (the serving layer's /v1/stats). Slots whose build is
// still in flight are skipped.
func (w *Workspace) TableStats() (tables int, bytes int64) {
	w.tmu.Lock()
	defer w.tmu.Unlock()
	for _, slot := range w.tables {
		t := slot.t.Load()
		if t == nil {
			continue
		}
		_, b := t.Stats()
		tables++
		bytes += b
	}
	return tables, bytes
}

// Model returns the cached model for extended size v, building it on first
// use.
func (w *Workspace) Model(v int) *Model {
	w.mu.Lock()
	m, ok := w.models[v]
	w.mu.Unlock()
	if ok {
		return m
	}
	m = NewModel(v, w.Params)
	w.mu.Lock()
	if prev, ok := w.models[v]; ok {
		m = prev // another goroutine won the race; keep one instance
	} else {
		w.models[v] = m
	}
	w.mu.Unlock()
	return m
}

// Sizes returns the extended sizes with built models (diagnostics).
func (w *Workspace) Sizes() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.models)
}
