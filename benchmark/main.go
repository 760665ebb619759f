// Command benchmark is the repository's benchmark: it builds ./cmd/gsimd,
// boots it as a child process on a free loopback port and drives four
// workloads against it over HTTP, checking every answer. See README.md
// in this directory and BENCHMARK.json at the repository root, which
// lists the three workloads the driver runs.
//
//	bash benchmark/run.sh --workload search-prefilter --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is what the flags fix for every run of one invocation.
type config struct {
	root    string // repository checkout
	spec    *benchSpec
	gsimd   string // built server binary
	work    string // scratch directory, removed on exit
	outDir  string // trace files
	seconds float64
	scale   float64
	clients int
	nproc   int
	trace   bool
	env     map[string]any // where the numbers are measured, recorded in every report
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what -out stores: the result plus where it came from.
type report struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Trace    bool           `json:"trace"`
	Env      map[string]any `json:"env"`
	Samples  map[string]int `json:"samples"`
	BootsS   []float64      `json:"boots_s"` // every timed gsimd boot, exec → ready, in order
	Failures []string       `json:"failures,omitempty"`
	Result   result         `json:"result"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all four, untraced then traced)")
		seed         = flag.Int64("seed", 1, "seed of dataset, per-client schedules and query order")
		seconds      = flag.Float64("seconds", 0, "timed window in seconds (ingest-recover: work budget); default: run_seconds of BENCHMARK.json")
		trace        = flag.Int("trace", 0, "1: traced pass (per-layer metrics, spans, answer checker); 0: end-to-end metrics")
		repeat       = flag.Int("repeat", 1, "run each selected workload N times on seeds seed..seed+N-1 and judge the spread against BENCHMARK.json")
		out          = flag.String("out", "", "also write the reports as JSON to this file")
		scale        = flag.Float64("scale", 1, "corpus scale in (0,1]; 1 is the paper's |D| = 37,995")
		clients      = flag.Int("clients", 0, "closed-loop connections (default min(nproc, 4); more than nproc is refused)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	cfg := config{seconds: *seconds, scale: *scale, nproc: runtime.NumCPU(), trace: *trace != 0}
	cfg.clients = *clients
	if cfg.clients == 0 {
		cfg.clients = min(cfg.nproc, 4)
	}
	if cfg.clients > cfg.nproc {
		return fmt.Errorf("%d clients on %d processors: an over-subscribed client queues in the harness, not the server", cfg.clients, cfg.nproc)
	}
	if *trace != 0 && *trace != 1 || cfg.seconds < 0 || *repeat < 1 {
		return errors.New("want -trace 0|1, -seconds > 0, -repeat ≥ 1")
	}
	var selected []*workload
	if *workloadName == "" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else if w := findWorkload(*workloadName); w != nil {
		selected = []*workload{w}
	} else {
		return fmt.Errorf("unknown workload %q", *workloadName)
	}

	if cfg.root, err = findRoot(); err != nil {
		return err
	}
	if cfg.spec, err = loadSpec(cfg.root); err != nil {
		return err
	}
	if cfg.seconds == 0 {
		cfg.seconds = cfg.spec.RunSeconds
	}
	build := filepath.Join(cfg.root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	if cfg.work, err = os.MkdirTemp(build, "run-"); err != nil {
		return err
	}
	cfg.outDir = filepath.Join(cfg.root, "benchmark", "out")
	// Children and scratch files go away on every exit path.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.RemoveAll(cfg.work)
		os.Exit(130)
	}()
	defer func() {
		killAll()
		os.RemoveAll(cfg.work)
	}()
	if cfg.gsimd, err = buildGsimd(cfg.root, cfg.work); err != nil {
		return err
	}
	cfg.env = environment(cfg)
	// The harness shares two cores with the server; collect less often.
	debug.SetGCPercent(400)

	// Without -workload: every workload untraced, then every one traced.
	passes := []bool{cfg.trace}
	if *workloadName == "" && *repeat == 1 {
		passes = []bool{false, true}
	}
	var reports []report
	correct := true
	for _, traced := range passes {
		cfg.trace = traced
		for _, w := range selected {
			var runs []report
			for i := 0; i < *repeat; i++ {
				rep, err := runOnce(cfg, w, *seed+int64(i))
				if err != nil {
					return fmt.Errorf("%s: %w", w.name, err)
				}
				runs = append(runs, rep)
				correct = correct && rep.Result.Correct
			}
			reports = append(reports, runs...)
			if *repeat > 1 {
				correct = cfg.spec.judgeSpread(w.name, runs) && correct
			}
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	last, err := json.Marshal(reports[len(reports)-1].Result)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	if !correct {
		return errors.New("a run failed operations or a spread exceeded its bound")
	}
	return nil
}

// findRoot locates the repository checkout: the working directory when
// run through benchmark/run.sh, its parent under `go run .` in
// benchmark/.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "gsimd", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no cmd/gsimd at or above %s: run from the repository root", wd)
}

// runOnce performs one run of one workload and prints its metrics.
func runOnce(cfg config, w *workload, seed int64) (report, error) {
	dir, err := os.MkdirTemp(cfg.work, w.name+"-")
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(dir)
	runtime.GC() // start every run of a -repeat series from the same heap
	r := &runner{
		cfg: cfg, wl: w, seed: seed, dir: dir, origin: time.Now(),
		metrics: make(map[string]metric), counts: make(map[string]int),
	}
	if err := w.run(r); err != nil {
		return report{}, err
	}
	if cfg.trace {
		if err := r.writeTrace(); err != nil {
			return report{}, err
		}
	}
	names := cfg.spec.names(cfg.trace)
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metric, len(names))}
	for _, name := range names {
		m, ok := r.metrics[name]
		if !ok {
			return report{}, fmt.Errorf("metric %s was not measured", name)
		}
		res.Metrics[name] = m
	}
	rep := report{
		Workload: w.name, Seed: seed, Trace: cfg.trace, Env: cfg.env,
		Samples: r.counts, Failures: r.failures, Result: res,
	}
	for _, b := range r.boots {
		rep.BootsS = append(rep.BootsS, b.Seconds())
	}
	printReport(rep, names)
	return rep, nil
}

func printReport(rep report, names []string) {
	fmt.Printf("== %s seed=%d trace=%v attempted=%d failed=%d fail_ratio=%.6f\n",
		rep.Workload, rep.Seed, rep.Trace, rep.Result.Attempted, rep.Result.Failed,
		float64(rep.Result.Failed)/float64(max(rep.Result.Attempted, 1)))
	for _, name := range names {
		m := rep.Result.Metrics[name]
		fmt.Printf("%-36s %14.4f %s\n", name, m.Value, m.Unit)
	}
	keys := make([]string, 0, len(rep.Samples))
	for k := range rep.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("samples.%-28s %14d count\n", k, rep.Samples[k])
	}
	fmt.Printf("boots_s %.3f\n", rep.BootsS)
	for _, f := range rep.Failures {
		fmt.Println("FAILED:", f)
	}
	env, _ := json.Marshal(rep.Env)
	fmt.Println("env", string(env))
}

// environment records where the numbers were measured.
func environment(cfg config) map[string]any {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = cfg.root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"nproc": cfg.nproc, "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"commit": commit, "clients": cfg.clients, "seconds": cfg.seconds, "scale": cfg.scale,
	}
}
