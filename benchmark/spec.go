package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchSpec is the part of BENCHMARK.json the harness reads: the window
// length, the metric names it must report in each mode and the bound of
// each end-to-end metric. Keeping them there, and only there, means the
// file the driver checks and the program it runs cannot drift apart.
type benchSpec struct {
	RunSeconds float64 `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 || s.RunSeconds <= 0 {
		return nil, fmt.Errorf("BENCHMARK.json names no metrics or no run_seconds")
	}
	return &s, nil
}

// names lists the metrics a run must report: per-layer ones for a traced
// pass, end-to-end ones otherwise.
func (s *benchSpec) names(traced bool) []string {
	var out []string
	if traced {
		for _, m := range s.PerLayer {
			out = append(out, m.Name)
		}
		return out
	}
	for _, m := range s.EndToEnd {
		out = append(out, m.Name)
	}
	return out
}

// judgeSpread prints, per end-to-end metric, the median, quartiles and
// relative spread (interquartile range over median) of a repeated
// workload, and reports whether every spread except setup_s's stays
// within the metric's bound — the acceptance rule the driver applies.
func (s *benchSpec) judgeSpread(workload string, runs []report) bool {
	ok := true
	fmt.Printf("== %s: spread over %d runs\n", workload, len(runs))
	fmt.Printf("%-14s %12s %12s %12s %8s %8s\n", "metric", "q1", "median", "q3", "spread", "bound")
	for _, m := range s.EndToEnd {
		vals := make([]float64, len(runs))
		for i, r := range runs {
			vals[i] = r.Result.Metrics[m.Name].Value
		}
		q1, q3 := quartiles(vals)
		med := medianF(vals)
		spread := (q3 - q1) / med
		verdict := ""
		if spread > m.Bound && m.Name != "setup_s" {
			verdict, ok = "  EXCEEDS BOUND", false
		}
		fmt.Printf("%-14s %12.4f %12.4f %12.4f %7.2f%% %7.2f%%%s\n", m.Name, q1, med, q3, 100*spread, 100*m.Bound, verdict)
	}
	return ok
}
