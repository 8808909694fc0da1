// Command dwatchd is the D-Watch localization server (Section 5):
// readers forward every RO_ACCESS_REPORT to it, and it keeps per-reader
// baseline AoA spectra and fuses localization fixes.
//
// dwatchd always runs a fleet (internal/fleet) of environments behind
// one observability plane. -env NAME serves one preset, named by the
// preset (-env lab is "laboratory"); -env-dir DIR serves every *.json
// deployment config in DIR, named by its file stem. Reader R of
// environment E is "E/R" (table/reader-1) on the wire, in the WAL, and
// in metric labels; a report whose reader no environment deploys is
// refused.
//
// Traffic sources combine freely: -listen accepts reader connections;
// -simulate drives every environment; -dial (or -chaos, against
// simulated readers behind a fault injector) supervises the one
// environment's readers; -cluster joins a dwatch-gateway directory,
// which assigns environments from the catalog.
//
// Usage:
//
//	dwatchd [-env hall | -env-dir DIR] [-listen 127.0.0.1:5084] [-simulate [-rounds N]]
//	        [-http 127.0.0.1:8080] [-wal-dir DIR] [-state FILE] [pipeline flags]
//	dwatchd -env table -dial table/reader-1=host:port,table/reader-2=host:port
//	dwatchd -env hall -chaos [-chaos-flap 2s] [-chaos-seed N]
//	dwatchd -env-dir DIR -cluster http://gateway:8090 -http :8081
//
// -http serves the internal/serve plane. -wal-dir is the ingest WAL
// root: environment E logs every report to DIR/E/ before dispatch and
// replays it on start. -state keeps the one environment's baseline
// across restarts without a WAL. dwatchd exits when its simulated or
// chaos rounds finish unless it serves something (-http, -listen,
// -dial, -cluster); then it runs until SIGINT or SIGTERM.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"dwatch/internal/api"
	"dwatch/internal/api/adapt"
	"dwatch/internal/fleet"
	"dwatch/internal/llrp"
	"dwatch/internal/obs"
	"dwatch/internal/pipeline"
	"dwatch/internal/profiling"
	"dwatch/internal/serve"
	"dwatch/internal/sim"
	"dwatch/internal/wal"
)

var (
	listen       = flag.String("listen", "", "LLRP listen address for reader connections, e.g. 127.0.0.1:5084 (empty = no listener)")
	env          = flag.String("env", "hall", "environment preset served as a one-environment fleet: library, laboratory (lab), hall, table")
	envDir       = flag.String("env-dir", "", "serve every *.json deployment config in this directory (file stem = environment ID) instead of -env")
	simulate     = flag.Bool("simulate", false, "drive every environment with generated LLRP rounds and a walking target")
	rounds       = flag.Int("rounds", 5, "simulated (and chaos) acquisition rounds after the two baseline rounds")
	simInterval  = flag.Duration("sim-interval", 100*time.Millisecond, "pacing between simulated acquisition rounds")
	statePath    = flag.String("state", "", "baseline state file of the one environment: loaded at start when present, saved once every reader's baseline is confirmed")
	walDir       = flag.String("wal-dir", "", "durable ingest WAL root: environment E appends every accepted report to DIR/E/ and replays it on start")
	walFsync     = flag.String("wal-fsync", "interval", "WAL fsync policy: always, never, interval, or interval=DURATION")
	walRetention = flag.String("wal-retention", "", "WAL retention bounds, e.g. segments=16,bytes=2GiB,age=24h (empty = keep everything)")
	walSegBytes  = flag.String("wal-segment-bytes", "", "WAL segment rotation size, e.g. 64MiB (empty = default)")
	workers      = flag.Int("workers", 0, "spectrum worker pool size per environment (0 = GOMAXPROCS)")
	queue        = flag.Int("queue", 0, "snapshot queue size (0 = default)")
	overload     = flag.String("overload", "block", "full-queue policy: block or drop-oldest")
	seqTTL       = flag.Duration("seq-ttl", 30*time.Second, "evict incomplete acquisition sequences after this long")
	httpAddr     = flag.String("http", "", "serve the observability plane (metrics, health, positions, per-env routes, pprof) on this address; empty = disabled")
	profileDir   = flag.String("profile-dir", "", "continuous-profiling ring directory: periodic CPU+heap pprof captures, bounded on disk, listed on /api/v1/profiles")
	dial         = flag.String("dial", "", "supervised mode: dial the one environment's readers (env/reader=addr,...) instead of listening")
	chaos        = flag.Bool("chaos", false, "supervised chaos demo: dial in-process simulated readers through a fault injector and flap one mid-run")
	chaosFlap    = flag.Duration("chaos-flap", 2*time.Second, "how long the chaos run keeps the flapped reader down")
	chaosSeed    = flag.Int64("chaos-seed", 1, "seed for the chaos fault injector and reconnect jitter")
	clusterURL   = flag.String("cluster", "", "join the dwatch-gateway directory at this base URL; the environments become a catalog and ownership follows slot assignment")
	nodeID       = flag.String("node-id", "", "cluster mode: node name announced to the directory (default: hostname)")
	advertise    = flag.String("advertise", "", "cluster mode: base URL the gateway proxies to (default: the -http listener address)")
	logFormat    = flag.String("log-format", "text", "structured log format: text or json")
)

func main() {
	flag.Parse()
	l, err := newLogger(*logFormat)
	if err != nil {
		fatal("bad flag", "error", err)
	}
	logger = l
	if err := run(); err != nil {
		fatal("dwatchd failed", "error", err)
	}
}

// daemon is one dwatchd run: the fleet and the serve plane in front of
// it, shared by every mode.
type daemon struct {
	f         *fleet.Fleet
	reg       *obs.Registry
	planeOpts []serve.Option
	plane     *serve.Server
	ctx       context.Context // ends at SIGINT/SIGTERM or when the run is over
	drivers   sync.WaitGroup  // -simulate and -chaos traffic sources
	// onStop runs once traffic should end; onDrain gets the
	// environments once their pipelines have drained.
	onStop  []func()
	onDrain []func(drained []*fleet.Env)
}

func run() error {
	var catalog map[string]sim.Config
	var ids []string
	if *envDir != "" {
		var err error
		if catalog, ids, err = fleet.ReadConfigDir(*envDir); err != nil {
			return err
		}
	} else {
		cfg, err := sim.Preset(*env)
		if err != nil {
			return err
		}
		catalog, ids = map[string]sim.Config{cfg.Name: cfg}, []string{cfg.Name}
	}
	if (*dial != "" || *chaos || *statePath != "") && (len(ids) != 1 || *clusterURL != "") {
		return fmt.Errorf("-dial, -chaos, and -state need exactly one environment and no -cluster (have %d)", len(ids))
	}
	policy, err := parseOverload(*overload)
	if err != nil {
		return err
	}

	reg := obs.NewRegistry()
	obs.RegisterBuildInfo(reg)
	obs.RegisterRuntime(reg)
	hub := serve.NewHub(serve.WithHubObs(reg))
	fopts := []fleet.Option{
		fleet.WithObs(reg), fleet.WithHub(hub), fleet.WithLogger(logger),
		fleet.WithPipelineOptions(func(string) []pipeline.Option {
			return []pipeline.Option{
				pipeline.WithWorkers(*workers), pipeline.WithQueueSize(*queue),
				pipeline.WithOverload(policy), pipeline.WithSeqTTL(*seqTTL),
			}
		}),
	}
	if *walDir != "" {
		wopts, err := walOptions()
		if err != nil {
			return err
		}
		fopts = append(fopts, fleet.WithWALRoot(*walDir, wopts...))
	}
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	d := &daemon{f: fleet.New(fopts...), reg: reg, ctx: ctx}
	defer d.f.Close()
	d.planeOpts = []serve.Option{
		serve.WithRegistry(reg), serve.WithHub(hub),
		serve.WithEnvs(d.f.Infos), serve.WithEnvLookup(d.f.EnvHandle),
		serve.WithReady(d.f.Ready), serve.WithFleetStats(d.f.Stats), serve.WithLogger(logger),
	}
	if *profileDir != "" {
		ring, err := profiling.Open(*profileDir, profiling.Options{Obs: reg, Logger: logger})
		if err != nil {
			return err
		}
		go ring.Run(ctx)
		d.planeOpts = append(d.planeOpts, serve.WithProfiles(
			func() []api.ProfileInfo { return adapt.Profiles(ring.List()) }, ring.Open))
		logger.Info("continuous profiling up", "dir", *profileDir)
	}

	var ln *llrp.Server
	if *listen != "" {
		ln = &llrp.Server{Handler: d.f.Handler()}
		addr, err := ln.Listen(*listen)
		if err != nil {
			return err
		}
		go func() {
			if err := ln.Serve(); !errors.Is(err, llrp.ErrServerClosed) {
				logger.Error("llrp listener stopped", "error", err)
			}
		}()
		logger.Info("llrp listening", "addr", addr.String())
	}
	if *clusterURL != "" {
		err = d.joinCluster(catalog, ids)
	} else {
		err = d.serveEnvs(catalog, ids)
	}
	if err != nil {
		return err
	}

	if *httpAddr == "" && *listen == "" && *dial == "" && *clusterURL == "" {
		go func() { d.drivers.Wait(); cancel() }() // nothing to serve: end with the traffic
	}
	<-ctx.Done()
	cancel() // a second signal now kills a slow drain
	for _, fn := range d.onStop {
		fn()
	}
	if ln != nil {
		sctx, scancel := context.WithTimeout(context.Background(), 3*time.Second)
		if err := ln.Shutdown(sctx); err != nil {
			logger.Warn("llrp shutdown", "error", err)
		}
		scancel()
	}
	d.drivers.Wait()
	var envs []*fleet.Env // Close empties the registry
	for _, id := range d.f.IDs() {
		envs = append(envs, d.env(id))
	}
	d.f.Close() // graceful drain: pipeline flush, WAL close
	for _, fn := range d.onDrain {
		fn(envs)
	}
	summarize(envs)
	if d.plane != nil {
		sctx, scancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer scancel()
		return d.plane.Shutdown(sctx)
	}
	return nil
}

// serveEnvs adds every environment and starts its traffic sources.
func (d *daemon) serveEnvs(catalog map[string]sim.Config, ids []string) error {
	var popts []pipeline.Option
	var err error
	if *statePath != "" {
		if popts, err = d.persistState(ids[0], catalog[ids[0]]); err != nil {
			return err
		}
	}
	var sv *supervised
	if *dial != "" || *chaos {
		if sv, err = d.supervise(ids[0], catalog[ids[0]]); err != nil {
			return err
		}
		popts = append(popts, pipeline.WithLiveReaders(sv.sup.Live))
		d.planeOpts = append(d.planeOpts,
			serve.WithReaders(sv.readerStatuses), serve.WithDegraded(sv.sup.Degraded))
	}
	for _, id := range ids {
		if _, err := d.f.Add(id, catalog[id], popts...); err != nil {
			return err
		}
	}
	logger.Info("dwatchd up", "envs", len(ids), "workers", *workers, "overload", *overload, "wal_root", *walDir)
	if _, err := d.startPlane(); err != nil {
		return err
	}
	if *simulate {
		for _, id := range ids {
			d.simulate(id)
		}
	}
	if sv != nil {
		sv.start(d)
	}
	return nil
}

// startPlane serves the observability plane when -http is set and
// returns its base URL.
func (d *daemon) startPlane() (string, error) {
	if *httpAddr == "" {
		return "", nil
	}
	d.plane = serve.New(d.planeOpts...)
	addr, err := d.plane.Start(*httpAddr)
	if err != nil {
		return "", err
	}
	url := "http://" + addr.String()
	logger.Info("observability plane up", "url", url+"/")
	return url, nil
}

// simulate drives environment id with generated rounds until they run
// out, the run ends, or the environment leaves the fleet.
func (d *daemon) simulate(id string) {
	d.drive("simulate "+id, func() error {
		return d.f.Simulate(d.ctx, id, *rounds, 0, *simInterval)
	})
}

func (d *daemon) drive(what string, fn func() error) {
	d.drivers.Add(1)
	go func() {
		defer d.drivers.Done()
		if err := fn(); err != nil && d.ctx.Err() == nil {
			logger.Error(what+" failed", "error", err)
		}
	}()
}

func (d *daemon) env(id string) *fleet.Env {
	e, _ := d.f.Env(id)
	return e
}

// summarize logs each drained environment's session totals.
func summarize(envs []*fleet.Env) {
	for _, e := range envs {
		st := e.Pipeline().Stats()
		logger.Info("done", "env", e.ID(), "fixes", e.Fixes(),
			"reports_in", st.ReportsIn, "snapshots", st.SnapshotsIn, "dropped", st.SnapshotsDropped,
			"spectra", st.SpectraComputed, "failed", st.SpectraFailed,
			"fused", st.SequencesAssembled, "evicted", st.SequencesEvicted, "late", st.LateReports,
			"compute_p50_ms", 1e3*st.ComputeLatency.P50, "fuse_p50_ms", 1e3*st.FuseLatency.P50)
	}
}

// walOptions builds WAL options from the -wal-* flags; the fleet adds
// the logger and registry.
func walOptions() ([]wal.Option, error) {
	policy, interval, err := wal.ParseFsyncPolicy(*walFsync)
	if err != nil {
		return nil, err
	}
	ret, err := wal.ParseRetention(*walRetention)
	if err != nil {
		return nil, err
	}
	opts := []wal.Option{wal.WithFsync(policy), wal.WithFsyncInterval(interval), wal.WithRetention(ret)}
	if *walSegBytes != "" {
		n, err := wal.ParseBytes(*walSegBytes)
		if err != nil {
			return nil, err
		}
		opts = append(opts, wal.WithSegmentMaxBytes(n))
	}
	return opts, nil
}

func parseOverload(s string) (pipeline.OverloadPolicy, error) {
	switch s {
	case "block":
		return pipeline.Block, nil
	case "drop-oldest":
		return pipeline.DropOldest, nil
	default:
		return 0, fmt.Errorf("unknown overload policy %q (want block or drop-oldest)", s)
	}
}
