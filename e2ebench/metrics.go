package main

// summary is everything one run measured.
type summary struct {
	setup        []float64 // seconds, one per set-up
	setupSlow    []float64 // host slowdown during each set-up
	main, traced *phase
	recover      []float64 // seconds, one per restart or recovery cycle
	recoverSlow  float64   // host slowdown while recover was measured
	addS         []float64 // fleet.Add call time per restart or cycle
	scanMBps     float64
	peakRSSMB    float64
	col          reply // traces collected during the traced phase
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (b *bench) collect(p *sutProc, sum *summary) error {
	rep, err := p.call(request{Op: "collect"})
	sum.col = rep
	return err
}

// result turns a run's measurements into the printed metrics: the
// end-to-end set from the untraced phase, or the per-layer set from the
// traced one.
func (b *bench) result(sum *summary) *result {
	res := &result{
		Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: map[string]metricValue{},
	}
	put := func(name, unit string, v float64) {
		res.Metrics[name] = metricValue{v, unit}
		b.note("%-36s %14.6g %s", name, v, unit)
	}
	m := sum.main
	if need := minSamples(0.99); len(m.lat) < need {
		b.bad("%d fixes in the window; p99 needs %d", len(m.lat), need)
	}
	b.note("samples: %d fixes (%d beyond p99), %d set-ups, %d restarts",
		len(m.lat), beyond(len(m.lat), 0.99), len(sum.setup), len(sum.recover))
	b.note("latency ms: p50 %.3f p90 %.3f p95 %.3f p99 %.3f max %.3f",
		quantile(m.lat, 0.5), quantile(m.lat, 0.9), quantile(m.lat, 0.95), quantile(m.lat, 0.99), quantile(m.lat, 1))
	if !b.o.trace {
		// The tail is bounded at p95: p99 has too few samples beyond it
		// for a steady run-to-run figure, so it is logged above with its
		// sample count but not bounded.
		p50, p95 := quantile(m.lat, 0.5), quantile(m.lat, 0.95)
		cpu := float64(m.cpuNs) / 1e6 / float64(m.fixes)
		rec := median(sum.recover)
		rate := float64(m.fixes) / m.seconds
		setup := make([]float64, len(sum.setup))
		for i, s := range sum.setup {
			setup[i] = s / sum.setupSlow[i]
		}
		b.note("raw: p50 %.4f ms, p95 %.4f ms, cpu %.4f ms/fix, recover %.4f s, %.4f fixes/s, setup %.4f s; host slowdown %.4f (window), %.4f (recover), %.4f (setup)",
			p50, p95, cpu, rec, rate, median(sum.setup), m.slow, sum.recoverSlow, median(sum.setupSlow))
		// Timings are divided by the host slowdown measured alongside
		// them (probe.go). On the live workloads the schedule sets
		// fixes_per_s (offered rate × coverage), so only wal-recover's,
		// a replay throughput, is normalized.
		if !b.w.live {
			rate *= m.slow
		}
		put("setup_s", "s", median(setup))
		put("fix_latency_p50_ms", "ms", p50/m.slow)
		put("fix_latency_p95_ms", "ms", p95/m.slow)
		put("fixes_per_s", "1/s", rate)
		put("recover_s", "s", rec/sum.recoverSlow)
		put("cpu_ms_per_fix", "ms", cpu/m.slow)
		put("peak_rss_mb", "MB", sum.peakRSSMB)
		put("fix_error_p50_m", "m", quantile(m.errs, 0.5))
		put("fix_error_p90_m", "m", quantile(m.errs, 0.9))
		put("coverage", "ratio", float64(m.fixes)/float64(m.targets))
		return res
	}

	t, col := sum.traced, sum.col
	delta := func(name string, labels ...string) float64 {
		return metric(t.m1, name, labels...) - metric(t.m0, name, labels...)
	}
	ns := func(key string, per float64) float64 { return col.Spans[key] / per }
	put("gen.lag_p99_ms", "ms", quantile(t.sends.lag, 0.99)/1e6)
	put("llrp.send_p99_us", "us", quantile(t.sends.dur, 0.99)/1e3)
	put("fleet.ingest_p50_us", "us", ns("fleet_ingest_p50", 1e3))
	put("fleet.ingest_p99_us", "us", ns("fleet_ingest_p99", 1e3))
	put("fleet.add_s", "s", median(sum.addS))
	put("wal.scan_mb_per_s", "MB/s", sum.scanMBps)
	appendMean := 0.0
	if n := delta("dwatch_wal_append_seconds_count"); n > 0 {
		appendMean = delta("dwatch_wal_append_seconds_sum") / n * 1e6
	}
	put("wal.append_mean_us", "us", appendMean)
	put("wal.fsyncs_per_s", "1/s", delta("dwatch_wal_fsyncs_total")/t.wallS)
	put("serve.resyncs", "count", delta("dwatch_broker_resyncs_total"))
	put("pipeline.ingest_p50_us", "us", ns("ingest_p50", 1e3))
	put("pipeline.spectrum_queue_p50_us", "us", ns("queue_p50", 1e3))
	put("pipeline.spectrum_queue_p99_us", "us", ns("queue_p99", 1e3))
	put("pipeline.spectrum_compute_p50_us", "us", ns("compute_p50", 1e3))
	put("pipeline.spectrum_compute_p99_us", "us", ns("compute_p99", 1e3))
	put("pipeline.assemble_p50_ms", "ms", ns("assemble_p50", 1e6))
	put("pipeline.assemble_p99_ms", "ms", ns("assemble_p99", 1e6))
	put("pipeline.fuse_p50_us", "us", ns("fuse_p50", 1e3))
	put("pipeline.fuse_p99_us", "us", ns("fuse_p99", 1e3))
	put("pipeline.spectra_per_fix", "count", delta("dwatch_pipeline_spectra_total")/float64(max(1, t.fixes)))
	put("pipeline.late_reports", "count", delta("dwatch_pipeline_late_reports_total"))
	put("pipeline.evicted", "count", delta("dwatch_pipeline_sequences_total", `outcome="evicted"`))
	put("pipeline.queue_depth_max", "count", float64(col.QueueMax))
	put("serve.publish_to_watcher_p50_us", "us", quantile(t.pubToRecv, 0.5))
	put("serve.publish_to_watcher_p99_us", "us", quantile(t.pubToRecv, 0.99))
	shares := b.shares(t, col.Traces)
	for _, layer := range shareLayers {
		put("share."+layer, "ratio", median(shares[layer]))
	}
	b.note("per-fix traces: %d collected, %d joined to delivered fixes", col.Collected, len(shares["untraced"]))
	overhead := 0.0
	if t.fixes > 0 && m.fixes > 0 {
		traced := float64(t.cpuNs) / float64(t.fixes) / t.slow
		untraced := float64(m.cpuNs) / float64(m.fixes) / m.slow
		overhead = (traced/untraced - 1) * 100
	}
	put("trace.overhead_pct", "%", overhead)
	return res
}

var shareLayers = []string{"ingest", "spectrum", "assemble", "fuse", "delivery", "untraced"}

// shares splits each traced fix's latency into its layers' self time
// along the critical path: the ingest of the report whose spectra
// finished last, that report's spectra, assembly, fusion, and delivery
// (publish to watcher receipt). What no span covers — the socket and
// LLRP framing before ingest, and hand-offs between stages — is
// untraced.
func (b *bench) shares(t *phase, traces []fixTrace) map[string][]float64 {
	out := map[string][]float64{}
	for _, ft := range traces {
		due, ok := t.dueNs[ft.TraceID]
		if !ok {
			continue
		}
		recv, pub := t.recvNs[ft.TraceID], t.pubNs[ft.TraceID]
		lat := float64(recv - due)
		if lat <= 0 {
			continue
		}
		self := selfTimes(due, recv, [][]interval{
			{ft.Ingest}, ft.Spectrum, {ft.Assemble}, {ft.Fuse}, {{pub, recv}},
		})
		rest := 1.0
		for i, layer := range shareLayers[:5] {
			s := float64(self[i]) / lat
			out[layer] = append(out[layer], s)
			rest -= s
		}
		out["untraced"] = append(out["untraced"], rest)
	}
	return out
}
