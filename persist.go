package gsim

import (
	"encoding/gob"
	"fmt"
	"io"

	"gsim/internal/core"
	"gsim/internal/prob"
)

// priorSnapshot is the serialised form of the offline artifacts: the GMM
// parameters of the GBD prior plus the model dimensions. Jeffreys-prior
// tables — and the posterior lookup tables derived from them — are
// deliberately not stored: both are deterministic functions of
// (v, LV, LE, τ̂) and the fitted prior, and rebuild lazily in milliseconds
// per size at the first search after LoadPriors. The snapshot therefore
// stays a few hundred bytes (the paper's Table IV/V space budget) and the
// format needs no version bump as the in-memory representations evolve.
type priorSnapshot struct {
	TauMax  int
	LV, LE  int
	Floor   float64
	Weights []float64
	Mus     []float64
	Sigmas  []float64
}

// SavePriors serialises the fitted offline priors. It fails before
// BuildPriors has run.
func (d *Database) SavePriors(w io.Writer) error {
	p := d.offline()
	if p.ws == nil {
		return ErrNoPriors
	}
	snap := priorSnapshot{
		TauMax: p.tauMax,
		LV:     p.ws.LV,
		LE:     p.ws.LE,
		Floor:  p.gbdPrior.Floor,
	}
	for i, c := range p.gbdPrior.Mix.Comps {
		snap.Weights = append(snap.Weights, p.gbdPrior.Mix.Weights[i])
		snap.Mus = append(snap.Mus, c.Mu)
		snap.Sigmas = append(snap.Sigmas, c.Sigma)
	}
	return gob.NewEncoder(w).Encode(snap)
}

// LoadPriors restores priors saved by SavePriors, replacing any fitted
// state. The database contents need not match the one that fitted the
// priors, but the paper's assumption — queries and graphs from the same
// population — is the caller's responsibility.
func (d *Database) LoadPriors(r io.Reader) error {
	var snap priorSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("gsim: decoding priors: %w", err)
	}
	if snap.TauMax <= 0 || len(snap.Weights) == 0 ||
		len(snap.Weights) != len(snap.Mus) || len(snap.Mus) != len(snap.Sigmas) {
		return fmt.Errorf("gsim: corrupt prior snapshot")
	}
	mix := &prob.GMM{}
	for i := range snap.Weights {
		if snap.Sigmas[i] <= 0 {
			return fmt.Errorf("gsim: corrupt prior snapshot: sigma %v", snap.Sigmas[i])
		}
		mix.Weights = append(mix.Weights, snap.Weights[i])
		mix.Comps = append(mix.Comps, prob.Normal{Mu: snap.Mus[i], Sigma: snap.Sigmas[i]})
	}
	floor := snap.Floor
	if floor <= 0 {
		floor = core.DefaultPriorFloor
	}
	d.install(priors{
		tauMax:   snap.TauMax,
		ws:       core.NewWorkspace(core.Params{LV: snap.LV, LE: snap.LE, TauMax: snap.TauMax}),
		gbdPrior: &core.GBDPrior{Mix: mix, Floor: floor},
	})
	return nil
}
