package dataset

import (
	"fmt"
	"math"
	"strings"
)

// Profile returns the generation config matching one of the paper's
// Table III data sets. scale ∈ (0, 1] shrinks the graph count (the
// statistics per graph are unchanged), letting tests and benches run the
// same shapes at a fraction of the volume; scale = 1 reproduces the full
// |D|. Profiles named syn1/syn2 dimension one subset; set MinV = MaxV to
// the subset's graph size before generating.
//
// The real IAM/NCI data sets are not redistributable offline; these
// cluster-generated stand-ins match their Table III statistics and carry
// exact ground truth (see the package comment and DESIGN.md §4).
func Profile(name string, scale float64) (Config, error) {
	if scale <= 0 || scale > 1 {
		return Config{}, fmt.Errorf("dataset: scale %v out of (0,1]", scale)
	}
	n := func(full int) int {
		v := int(math.Round(scale * float64(full)))
		if v < 40 {
			v = 40
		}
		return v
	}
	var cfg Config
	switch strings.ToLower(name) {
	case "aids":
		// Table III: |D|=1896, Vm=95, Em=103, d=2.1, scale-free.
		cfg = Config{
			Name: "aids", NumGraphs: n(1896), MinV: 20, MaxV: 95,
			ExtraPerV: 0.06, ScaleFree: true, LV: 38, LE: 3,
			PoolSize: 7, ClusterSize: 20, ModSlots: 11, GuardTau: 10,
			Seed: 101,
		}
	case "finger", "fingerprint":
		// Table III: |D|=2159, Vm=26, Em=26, d=1.7, scale-free.
		cfg = Config{
			Name: "finger", NumGraphs: n(2159), MinV: 16, MaxV: 26,
			ExtraPerV: 0.02, ConnectProb: 0.87, ScaleFree: true,
			LV: 15, LE: 8, PoolSize: 4, ClusterSize: 20, ModSlots: 8,
			GuardTau: 10, Seed: 102,
		}
	case "grec":
		// Table III: |D|=1045, Vm=24, Em=29, d=2.1, scale-free.
		cfg = Config{
			Name: "grec", NumGraphs: n(1045), MinV: 16, MaxV: 24,
			ExtraPerV: 0.1, ScaleFree: true, LV: 22, LE: 6,
			PoolSize: 6, ClusterSize: 19, ModSlots: 9, GuardTau: 10,
			Seed: 103,
		}
	case "aasd":
		// Table III: |D|=37995, Vm=93, Em=99, d=2.1, scale-free.
		cfg = Config{
			Name: "aasd", NumGraphs: n(37995), MinV: 20, MaxV: 93,
			ExtraPerV: 0.06, ScaleFree: true, LV: 40, LE: 3,
			PoolSize: 7, ClusterSize: 25, ModSlots: 11, GuardTau: 10,
			Seed: 104,
		}
	case "syn1":
		// Table III: subsets of 500 graphs, 1K–100K vertices, d=9.6,
		// scale-free, known pairwise GEDs, thresholds up to 30.
		cfg = Config{
			Name: "syn1", NumGraphs: n(500), MinV: 1000, MaxV: 1000,
			ExtraPerV: 3.8, ScaleFree: true, LV: 20, LE: 10,
			PoolSize: 8, ClusterSize: 50, ModSlots: 31, GuardTau: 30,
			Seed: 105,
		}
	case "syn2":
		// As Syn-1 but uniform-random (non-scale-free), d=9.4.
		cfg = Config{
			Name: "syn2", NumGraphs: n(500), MinV: 1000, MaxV: 1000,
			ExtraPerV: 3.7, ScaleFree: false, LV: 20, LE: 10,
			PoolSize: 8, ClusterSize: 50, ModSlots: 31, GuardTau: 30,
			Seed: 106,
		}
	default:
		return Config{}, fmt.Errorf("dataset: unknown profile %q (want aids|finger|grec|aasd|syn1|syn2)", name)
	}
	return cfg, nil
}

// SynSubset configures one Syn-1/Syn-2 subset of the given graph size.
func SynSubset(profile string, size, graphs int, seed int64) (Config, error) {
	cfg, err := Profile(profile, 1)
	if err != nil {
		return Config{}, err
	}
	cfg.Name = fmt.Sprintf("%s-%dk", cfg.Name, size/1000)
	cfg.MinV, cfg.MaxV = size, size
	if graphs > 0 {
		cfg.NumGraphs = graphs
	}
	cfg.Seed = seed
	return cfg, nil
}
