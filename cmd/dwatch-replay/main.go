// Command dwatch-replay re-runs localization over recorded LLRP
// traffic: the offline workflow for tuning detection thresholds
// against captured deployments, and the throughput regression harness
// for the streaming pipeline.
//
// It replays one environment's WAL directory through internal/replay:
// dwatchd -wal-dir ROOT -env table writes ROOT/table/, and
// dwatch-replay -wal-dir ROOT/table -env table replays it. The records
// carry the environment-qualified reader IDs (table/reader-1), so the
// replay deployment is the preset's, qualified the same way
// (fleet.Deployment). Replay stops cleanly at the first damaged record
// and reports where.
//
// Replay paces at -speed× real time (0 = unthrottled: the pipeline is
// fed as fast as it accepts — the regression-harness mode). The run
// summary reports reports/s, spectra/s, latency digests, and a fix
// parity hash: SHA-256 over the seq-sorted fixes' raw float bits, so
// two runs over the same capture with the same configuration can be
// compared bit for bit. -json emits the summary as one JSON document
// on stdout for scripts (scripts/replay-smoke.sh diffs parity hashes
// across a crash/recover cycle).
//
// -eigensolver and -asm-shards pin the pipeline configuration for A/B
// replays of one capture (scripts/replay-ab.sh): the fusion shard
// count never moves the parity hash, while jacobi-vs-qr eigensolvers
// differ inside the documented tolerance (see DESIGN.md "Scaling the
// hot path").
//
// Usage:
//
//	dwatch-replay -wal-dir DIR [-env hall] [-speed N] [-workers N]
//	              [-eigensolver auto|qr|jacobi] [-asm-shards N] [-json]
//	              [-http 127.0.0.1:8080]
//
// -http serves the observability plane during the replay, the
// environment's traces and RF health under /api/v1/{env}/ — useful for
// watching /metrics or the /api/v1/positions SSE stream while a long
// capture re-runs, and for profiling via /debug/pprof.
//
// Exit status: 0 clean, 1 on failure or when no report was ingested
// (for example a WAL of another environment), 2 when the capture ended
// early (torn tail or damaged segment).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"dwatch/internal/dwatch"
	"dwatch/internal/fleet"
	"dwatch/internal/health"
	"dwatch/internal/music"
	"dwatch/internal/obs"
	"dwatch/internal/pipeline"
	"dwatch/internal/pmusic"
	"dwatch/internal/replay"
	"dwatch/internal/serve"
	"dwatch/internal/sim"
	"dwatch/internal/tracing"
)

func main() {
	walDir := flag.String("wal-dir", "", "one environment's WAL directory, ROOT/ENV/ under dwatchd's -wal-dir root")
	env := flag.String("env", "hall", "environment preset the WAL was recorded in: library, laboratory (lab), hall, table")
	speed := flag.Float64("speed", 0, "real-time multiplier: 1 = original pacing, 10 = 10x, 0 = unthrottled")
	dropFloor := flag.Float64("drop-floor", 0, "override the per-path drop floor (0 = default)")
	workers := flag.Int("workers", 0, "spectrum worker pool size (0 = GOMAXPROCS)")
	eigensolver := flag.String("eigensolver", "", "eigendecomposition backend for A/B replays: auto, qr, or jacobi (empty = auto)")
	asmShards := flag.Int("asm-shards", 0, "fusion shard count for A/B replays (0 = GOMAXPROCS, 1 = serialized fusion)")
	jsonOut := flag.Bool("json", false, "emit the run summary as JSON on stdout")
	httpAddr := flag.String("http", "", "serve the observability plane (metrics, health, positions, pprof) on this address during replay; empty = disabled")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	flag.Parse()
	switch *logFormat {
	case "", "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	default:
		fatal(fmt.Errorf("unknown -log-format %q (want text or json)", *logFormat))
	}

	if *walDir == "" {
		fatal(fmt.Errorf("-wal-dir is required"))
	}
	if *speed < 0 {
		fatal(fmt.Errorf("-speed %v: must be >= 0", *speed))
	}

	cfg, err := sim.Preset(*env)
	if err != nil {
		fatal(err)
	}
	dep, sc, err := fleet.Deployment(cfg.Name, cfg)
	if err != nil {
		fatal(err)
	}
	src, err := replay.OpenWAL(*walDir)
	if err != nil {
		fatal(err)
	}
	defer src.Close()

	solver, err := music.ParseEigensolver(*eigensolver)
	if err != nil {
		fatal(err)
	}
	popts := []pipeline.Option{
		pipeline.WithWorkers(*workers),
		pipeline.WithAssemblerShards(*asmShards),
		pipeline.WithPMusic(pmusic.Options{Music: music.Options{Eigensolver: solver}}),
		pipeline.WithFuser(dwatch.Config{DropFloor: *dropFloor}),
		pipeline.WithLogger(logger),
	}
	var plane *serve.Server
	var onFix func(pipeline.Fix)
	if *httpAddr != "" {
		reg := obs.NewRegistry()
		hub := serve.NewHub(serve.WithHubObs(reg))
		tracer := tracing.New()
		mon := health.New(reg, health.Options{})
		obs.RegisterBuildInfo(reg)
		obs.RegisterRuntime(reg)
		popts = append(popts,
			pipeline.WithObs(reg),
			pipeline.WithTracer(tracer),
			pipeline.WithHealth(mon),
		)
		info := serve.EnvInfo{ID: sc.Name, Readers: len(sc.Readers), Tags: sc.Cfg.Tags, Added: time.Now()}
		handle := serve.EnvHandle{Info: info, Tracer: tracer, Health: mon}
		onFix = func(fix pipeline.Fix) {
			hub.Publish(serve.Position{
				Env: sc.Name, Seq: fix.Seq,
				X: fix.Pos.X, Y: fix.Pos.Y,
				Confidence: fix.Confidence, Views: fix.Views,
				Readers: fix.Readers, Degraded: fix.Degraded,
				TraceID: fix.TraceID,
				Time:    time.Now(),
			})
		}
		plane = serve.New(
			serve.WithRegistry(reg),
			serve.WithHub(hub),
			serve.WithEnvs(func() []serve.EnvInfo { return []serve.EnvInfo{info} }),
			serve.WithEnvLookup(func(id string) (serve.EnvHandle, bool) { return handle, id == sc.Name }),
			serve.WithLogger(logger),
		)
		planeAddr, err := plane.Start(*httpAddr)
		if err != nil {
			fatal(err)
		}
		logger.Info("observability plane up", "url", "http://"+planeAddr.String()+"/")
	}

	sum, err := replay.Run(src, dep, replay.Options{
		Speed:    *speed,
		Pipeline: popts,
		Logger:   logger,
		OnFix:    onFix,
	})
	if plane != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		plane.Shutdown(ctx)
		cancel()
	}
	if err != nil {
		fatal(err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			fatal(err)
		}
	} else {
		printSummary(sum)
	}
	if sum.Reports == 0 {
		fatal(fmt.Errorf("replayed 0 of %d records from %s: is it a %s WAL?", sum.Records, *walDir, sc.Name))
	}
	if sum.SourceError != "" || sum.Damage != nil {
		// The capture ended early (torn tail or damaged segment): the
		// replay itself is still valid, but scripts should know.
		os.Exit(2)
	}
}

func printSummary(sum *replay.Summary) {
	fmt.Printf("replay complete: %d fixes, %d misses (parity %s)\n",
		sum.Fixes, sum.Misses, sum.FixParity)
	fmt.Printf("throughput: %d reports (%d spectra) in %.3fs = %.1f reports/s, %.1f spectra/s\n",
		sum.Reports, sum.Spectra, sum.WallSeconds, sum.ReportsPerSec, sum.SpectraPerSec)
	if sum.ComputeLatency.Count > 0 {
		fmt.Printf("latency: compute p50 %.2fms p99 %.2fms, fuse p50 %.2fms p99 %.2fms\n",
			1e3*sum.ComputeLatency.P50, 1e3*sum.ComputeLatency.P99,
			1e3*sum.FuseLatency.P50, 1e3*sum.FuseLatency.P99)
	}
	if sum.SkippedType > 0 || sum.SkippedUnknown > 0 || sum.BadReports > 0 {
		fmt.Printf("skipped: %d non-report messages, %d unknown-reader reports, %d bad payloads\n",
			sum.SkippedType, sum.SkippedUnknown, sum.BadReports)
	}
	if sum.SourceError != "" {
		fmt.Printf("warning: capture ended early: %s\n", sum.SourceError)
	}
	if sum.Damage != nil {
		fmt.Printf("warning: WAL damage in %s at offset %d: %s\n",
			sum.Damage.Segment, sum.Damage.Offset, sum.Damage.Reason)
	}
}

// logger is the diagnostic sink; replay results still go to stdout so
// the tool stays pipeline-friendly.
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

func fatal(err error) {
	logger.Error("dwatch-replay failed", "error", err)
	os.Exit(1)
}
