// Command gsimd serves graph similarity search over HTTP: the
// internal/server JSON API (search, topk, batch, NDJSON streaming,
// ingest, stats, health) over one resident gsim database. Every search
// runs the library's scan.
//
// Usage:
//
//	gsimd -data /var/lib/gsim -addr :8764          # durable database
//	gsimd -data /var/lib/gsim -db molecules.gsim   # durable, seeded once
//	gsimd -db molecules.gsim -build-priors         # in-memory, preloaded
//	gsimd -addr :8764                  # start empty, fill via /v1/graphs
//
// With -data the database is durable: per-shard write-ahead logs journal
// every mutation (fsync discipline under -fsync: always, interval,
// never), checkpoints write per-shard snapshot segments, and a restart
// recovers by loading segments in parallel and replaying the logs. The
// -db flag names a .gsim text seed: with -data it is imported once — it
// seeds the data directory on first boot and is ignored once a manifest
// exists, so the flag can stay across restarts — and without -data the
// database is in-memory and the seed is preloaded on every boot. POST
// /v1/admin/checkpoint forces a snapshot; /v1/stats carries a
// "persistence" block.
//
// The store is partitioned over -shards shards (default GOMAXPROCS) —
// concurrent ingest, DELETE /v1/graphs/{id} and update-by-re-POST commit
// per shard while searches scan consistent snapshots.
// -priors restores offline priors saved by SavePriors, while
// -build-priors fits them at startup (-tau-max, -pairs) — the two are
// mutually exclusive; -warm τ̂ additionally pre-builds the posterior
// lookup table for the expected query threshold so the first request
// after boot already runs the steady-state path. Without priors,
// GBDA-family queries answer 409 until they exist.
//
// Observability: GET /metrics serves the Prometheus text exposition
// (per-endpoint request histograms, per-stage search timing, per-shard
// scan/prune/mutation counters, WAL fsync timing, database and runtime
// gauges; disable with -metrics=false), /v1/stats carries the same
// telemetry as JSON summaries, -slowlog logs any request at or over the
// given duration with its per-stage breakdown and request ID, and
// ?debug=trace on a search endpoint echoes the stage breakdown in the
// response. Every response carries an X-Request-Id header (inbound IDs
// are echoed, others generated) for correlation with the slow log.
// -pprof exposes net/http/pprof on a separate,
// opt-in listener (keep it on localhost or behind a firewall; profiles
// leak internals), leaving the API listener free of debug handlers.
//
// Operational hardening: -timeout puts a context deadline on every work
// request (a blown deadline cancels the scan and answers 504),
// -max-inflight/-max-queue bound concurrent execution and shed excess
// load with 429 + Retry-After, and a durability fault (failed fsync,
// disk full) flips the database to degraded-read-only — searches keep
// serving, mutations answer 503 while a background probe retries
// recovery with backoff. /healthz stays pure liveness; /readyz answers
// 503 with a JSON state body while degraded or draining, so load
// balancers rotate the process out without killing it. The server shuts
// down gracefully on SIGINT/SIGTERM: /readyz flips to draining,
// in-flight requests get -drain to finish, then the remaining
// connections are force-closed so a wedged request cannot stall the
// final checkpoint.
//
// Try it:
//
//	curl localhost:8764/healthz
//	curl -s localhost:8764/v1/stats | jq .
//	curl -s localhost:8764/v1/search -d '{
//	  "graph": {"vertices": ["C","N"], "edges": [{"u":0,"v":1,"label":"s"}]},
//	  "tau": 3, "gamma": 0.9}' | jq .
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gsim"
	"gsim/internal/server"
)

// config collects the flag values; split from main so the smoke test can
// assemble a server without a process.
type config struct {
	dataDir      string
	fsync        string
	dbPath       string
	priorsPath   string
	buildPriors  bool
	tauMax       int
	pairs        int
	method       string
	workers      int
	shards       int
	shardsSet    bool
	warmTau      int
	slowLog      time.Duration
	slowLogRate  float64
	slowLogBurst int
	metrics      bool
	timeout      time.Duration
	maxInFlight  int
	maxQueue     int
}

// bootClock times the stages of a boot for its log line.
type bootClock struct{ load, priors, warm time.Duration }

// load assembles the served database and server from cfg and logs how
// long each stage of the boot took.
func load(cfg config) (*server.Server, *gsim.Database, error) {
	var clk bootClock
	start := time.Now()
	if cfg.priorsPath != "" && cfg.buildPriors {
		return nil, nil, fmt.Errorf("-priors and -build-priors are mutually exclusive; restore a snapshot or fit fresh, not both")
	}
	var d *gsim.Database
	if cfg.dataDir != "" {
		opts := []gsim.Option{}
		if cfg.shardsSet {
			opts = append(opts, gsim.WithShards(cfg.shards))
		}
		if cfg.fsync != "" {
			p, err := gsim.ParseFsyncPolicy(cfg.fsync)
			if err != nil {
				return nil, nil, fmt.Errorf("-fsync: %w", err)
			}
			opts = append(opts, gsim.WithFsyncPolicy(p))
		}
		if cfg.dbPath != "" {
			// Consulted only while the directory has no manifest, so keeping
			// the flag across restarts is harmless.
			log.Printf("gsimd: -db with -data imports %s once; the data directory owns the contents afterwards", cfg.dbPath)
			opts = append(opts, gsim.WithImport(cfg.dbPath))
		}
		var err error
		if d, err = gsim.Open(cfg.dataDir, opts...); err != nil {
			return nil, nil, err
		}
	} else {
		name := cfg.dbPath
		if name == "" {
			name = "gsimd"
		}
		d = gsim.New(gsim.WithName(name), gsim.WithShards(cfg.shards))
		if cfg.dbPath != "" {
			f, err := os.Open(cfg.dbPath)
			if err != nil {
				return nil, nil, err
			}
			_, err = d.LoadText(f)
			f.Close()
			if err != nil {
				return nil, nil, fmt.Errorf("loading %s: %w", cfg.dbPath, err)
			}
		}
	}
	clk.load = time.Since(start)
	srv, err := finishLoad(cfg, d, &clk)
	if err != nil {
		d.Close()
		return nil, nil, err
	}
	ms := func(d time.Duration) time.Duration { return d.Round(time.Millisecond) }
	log.Printf("gsimd: ready in %v (load %v, priors %v, warm %v)",
		ms(time.Since(start)), ms(clk.load), ms(clk.priors), ms(clk.warm))
	return srv, d, nil
}

// finishLoad runs the post-construction steps (priors, warmup, server
// assembly) so load can release a durable database on any failure; clk
// takes the priors and warm-up times.
func finishLoad(cfg config, d *gsim.Database, clk *bootClock) (*server.Server, error) {
	start := time.Now()
	if cfg.priorsPath != "" {
		f, err := os.Open(cfg.priorsPath)
		if err != nil {
			return nil, err
		}
		err = d.LoadPriors(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("loading priors %s: %w", cfg.priorsPath, err)
		}
	} else if cfg.buildPriors {
		if err := d.BuildPriors(gsim.OfflineConfig{TauMax: cfg.tauMax, SamplePairs: cfg.pairs}); err != nil {
			return nil, fmt.Errorf("building priors: %w", err)
		}
	}
	clk.priors = time.Since(start)
	start = time.Now()
	m := gsim.Method(0)
	if cfg.method != "" {
		var err error
		if m, err = gsim.ParseMethod(cfg.method); err != nil {
			return nil, err
		}
	}
	if cfg.warmTau != 0 {
		// Build the posterior table for the expected query threshold now,
		// so the first request after boot runs the steady-state two-table
		// path instead of paying the cold build.
		if err := d.WarmPosteriorTables(cfg.warmTau); err != nil {
			return nil, fmt.Errorf("-warm %d: %w", cfg.warmTau, err)
		}
	}
	clk.warm = time.Since(start)
	srv := server.New(server.Config{
		DB:             d,
		DefaultMethod:  m,
		Workers:        cfg.workers,
		SlowQuery:      cfg.slowLog,
		SlowLogPerSec:  cfg.slowLogRate,
		SlowLogBurst:   cfg.slowLogBurst,
		DisableMetrics: !cfg.metrics,
		RequestTimeout: cfg.timeout,
		MaxInFlight:    cfg.maxInFlight,
		MaxQueue:       cfg.maxQueue,
	})
	return srv, nil
}

// pprofHandler exposes the net/http/pprof endpoints on a private mux, so
// the profiling listener (-pprof) serves nothing but profiles — the API
// listener stays free of debug handlers whether or not profiling is on.
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func main() {
	var (
		addr      = flag.String("addr", ":8764", "listen address")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this separate address (e.g. localhost:6060; empty = off)")
		version   = flag.Bool("version", false, "print version and exit")
		cfg       config
		methods   = "gbda"
	)
	flag.StringVar(&cfg.dataDir, "data", "", "durable data directory (WAL + snapshot segments); empty = in-memory")
	flag.StringVar(&cfg.fsync, "fsync", "", "WAL fsync policy with -data: always (default), interval, never")
	flag.StringVar(&cfg.dbPath, "db", "", ".gsim text seed (imported once with -data, preloaded without)")
	flag.StringVar(&cfg.priorsPath, "priors", "", "path to priors saved by SavePriors (gob)")
	flag.BoolVar(&cfg.buildPriors, "build-priors", false, "fit the offline GBDA priors at startup")
	flag.IntVar(&cfg.tauMax, "tau-max", 10, "largest τ̂ the offline priors support (-build-priors)")
	flag.IntVar(&cfg.pairs, "pairs", 20000, "sampled pairs for the GBD prior (-build-priors)")
	flag.Int("cache", 0, "ignored; accepted so existing command lines still parse")
	flag.StringVar(&cfg.method, "method", methods, "default search method for requests that omit one")
	flag.IntVar(&cfg.workers, "workers", 0, "default scan workers per request (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.shards, "shards", 0, "storage shards for the resident database (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.warmTau, "warm", 0, "pre-build the posterior table for this τ̂ at startup (0 = off; needs priors)")
	flag.DurationVar(&cfg.slowLog, "slowlog", 0, "log requests at or over this duration with their stage breakdown (0 = off)")
	flag.Float64Var(&cfg.slowLogRate, "slowlog-rate", 0, "slow-query line emission limit in lines/sec (0 = default 10, negative = unlimited)")
	flag.IntVar(&cfg.slowLogBurst, "slowlog-burst", 0, "slow-query emission burst capacity (0 = default 20)")
	flag.BoolVar(&cfg.metrics, "metrics", true, "serve the Prometheus text exposition on GET /metrics")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "per-request deadline for work endpoints; a blown deadline answers 504 (0 = none)")
	flag.IntVar(&cfg.maxInFlight, "max-inflight", 0, "cap on concurrently executing work requests; excess is shed with 429 + Retry-After (0 = unlimited)")
	flag.IntVar(&cfg.maxQueue, "max-queue", 0, "admission wait-queue slots in front of -max-inflight (0 = shed immediately at the cap)")
	flag.Parse()
	if *version {
		fmt.Println("gsimd", gsim.Version)
		return
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "shards" {
			cfg.shardsSet = true
		}
	})

	srv, d, err := load(cfg)
	if err != nil {
		log.Fatalf("gsimd: %v", err)
	}
	log.Printf("gsimd: serving %q (%d graphs, priors=%v, durable=%v) on %s",
		d.Name(), d.Len(), d.HasPriors(), cfg.dataDir != "", *addr)

	if *pprofAddr != "" {
		go func() {
			log.Printf("gsimd: pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pprofHandler()); err != nil {
				log.Printf("gsimd: pprof listener: %v", err)
			}
		}()
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		d.Close()
		log.Fatalf("gsimd: %v", err)
	case <-ctx.Done():
		stop()
		log.Printf("gsimd: shutting down (drain %v)", *drain)
		// Flip /readyz to 503 first so load balancers stop routing here
		// while the in-flight requests finish.
		srv.SetDraining(true)
		shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				// The drain deadline is a hard cap: a wedged in-flight
				// request must not hold Close (and the final checkpoint)
				// hostage. Force-close the remaining connections.
				log.Printf("gsimd: drain deadline exceeded; force-closing connections")
				hs.Close()
			} else {
				log.Printf("gsimd: shutdown: %v", err)
			}
		}
		// Requests have drained (or were cut off): the final checkpoint
		// compacts the data directory so the next boot recovers from
		// segments alone.
		if err := d.Close(); err != nil {
			log.Printf("gsimd: close: %v", err)
		}
	}
}
