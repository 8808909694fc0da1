package pipeline

import (
	"time"

	"dwatch/internal/obs"
)

// Metric names the pipeline exports when a registry is attached.
// Label conventions: reader= is the deployment reader ID, result=
// discriminates outcomes inside one flow, stage= (on the shared
// obs.SpanFamily histograms) is ingest|spectrum|assemble|fuse.
const (
	metricReports          = "dwatch_pipeline_reports_total"
	metricReportsRejected  = "dwatch_pipeline_reports_rejected_total"
	metricSnapshots        = "dwatch_pipeline_snapshots_total"
	metricSnapshotsDropped = "dwatch_pipeline_snapshots_dropped_total"
	metricSpectra          = "dwatch_pipeline_spectra_total"
	metricBaselines        = "dwatch_pipeline_baselines_confirmed_total"
	metricSequences        = "dwatch_pipeline_sequences_total"
	metricLateReports      = "dwatch_pipeline_late_reports_total"
	metricFixes            = "dwatch_pipeline_fixes_total"
	metricQueueDepth       = "dwatch_pipeline_queue_depth"
	metricPendingSeqs      = "dwatch_pipeline_pending_sequences"
)

// Stage labels on the obs.SpanFamily duration histograms, in flow
// order. The assemble span measures first-report-to-complete per
// sequence, not goroutine work, so it reflects cross-reader skew.
const (
	stageIngest   = "ingest"
	stageSpectrum = "spectrum"
	stageAssemble = "assemble"
	stageFuse     = "fuse"
)

// instruments mirrors the pipeline's atomic counters onto an
// obs.Registry so a live deployment exposes them incrementally instead
// of only via end-of-run Stats dumps. All labeled children — the stage
// span histograms included — are resolved once at construction (the
// reader set is fixed for the pipeline's lifetime), so steady-state
// increments and spans are single atomics or one short histogram lock,
// with no registry locking. A nil *instruments (no registry attached)
// makes every method a no-op — the uninstrumented hot path pays one
// nil check per site.
type instruments struct {
	reg *obs.Registry

	stages map[string]*obs.Histogram // obs.SpanFamily child by stage
	// dropGauges detaches the collection-time gauge funcs, which would
	// otherwise keep the pipeline reachable from the registry.
	dropGauges []func()

	reports   map[string]*obs.Counter // by reader ID
	rejected  *obs.Counter
	snaps     *obs.Counter
	snapsDrop *obs.Counter

	spectraOK     *obs.Counter
	spectraFailed *obs.Counter

	baselines    map[string]*obs.Counter // by reader ID
	seqAssembled *obs.Counter
	seqEvicted   *obs.Counter
	late         *obs.Counter
	fixOK        *obs.Counter
	fixDegraded  *obs.Counter
	fixMiss      *obs.Counter
}

// newInstruments registers the pipeline's metric families and gauges.
// Called from New after the assembler exists; returns nil when no
// registry is attached.
func newInstruments(reg *obs.Registry, p *Pipeline) *instruments {
	if reg == nil {
		return nil
	}
	in := &instruments{
		reg:       reg,
		stages:    map[string]*obs.Histogram{},
		reports:   map[string]*obs.Counter{},
		baselines: map[string]*obs.Counter{},
	}
	for _, stage := range []string{stageIngest, stageSpectrum, stageAssemble, stageFuse} {
		in.stages[stage] = reg.StageHistogram(stage)
	}
	reports := reg.CounterVec(metricReports, "Reports accepted from known readers.", "reader")
	baselines := reg.CounterVec(metricBaselines, "Baseline confirmations per reader.", "reader")
	for id := range p.cfg.Arrays {
		in.reports[id] = reports.With(id)
		in.baselines[id] = baselines.With(id)
	}
	in.rejected = reg.Counter(metricReportsRejected, "Reports rejected (unknown reader).")
	in.snaps = reg.Counter(metricSnapshots, "Per-tag snapshot jobs enqueued.")
	in.snapsDrop = reg.Counter(metricSnapshotsDropped, "Snapshot jobs shed by the drop-oldest overload policy.")
	spectra := reg.CounterVec(metricSpectra, "Tag snapshots evaluated by the spectrum stage, by result.", "result")
	in.spectraOK = spectra.With("ok")
	in.spectraFailed = spectra.With("failed")
	sequences := reg.CounterVec(metricSequences, "Acquisition sequences by outcome.", "outcome")
	in.seqAssembled = sequences.With("assembled")
	in.seqEvicted = sequences.With("evicted")
	in.late = reg.Counter(metricLateReports, "Reports for already-fused or evicted sequences.")
	fixes := reg.CounterVec(metricFixes, "Fusion outcomes.", "result")
	in.fixOK = fixes.With("fix")
	in.fixDegraded = fixes.With("degraded")
	in.fixMiss = fixes.With("miss")
	in.dropGauges = []func(){
		reg.GaugeFunc(metricQueueDepth, "Instantaneous report-queue occupancy.",
			func() float64 { return float64(len(p.jobs)) }),
		reg.GaugeFunc(metricPendingSeqs, "Sequences currently mid-assembly.",
			func() float64 { return float64(p.asm.pendingSequences()) }),
	}
	return in
}

// close detaches the pipeline's gauge funcs from the registry once the
// pipeline has shut down, so a registry that outlives it (a fleet
// removing an environment) neither sums its gauges nor keeps it alive.
func (in *instruments) close() {
	if in == nil {
		return
	}
	for _, drop := range in.dropGauges {
		drop()
	}
}

// span starts a stage span on the stage's obs.SpanFamily histogram. On
// a nil receiver the span still measures (EndAt returns the elapsed
// time) but records nothing, so call sites can reuse its duration for
// the legacy Stats digests unconditionally.
func (in *instruments) span(stage string, start time.Time) obs.Span {
	if in == nil {
		return (*obs.Histogram)(nil).SpanAt(start)
	}
	return in.stages[stage].SpanAt(start)
}

func (in *instruments) reportAccepted(reader string) {
	if in == nil {
		return
	}
	in.reports[reader].Inc()
}

func (in *instruments) reportRejected() {
	if in == nil {
		return
	}
	in.rejected.Inc()
}

// snapshotsEnqueued counts a whole report's tags in one add — the
// batched-dispatch ingest path touches the counter once per report.
func (in *instruments) snapshotsEnqueued(n int) {
	if in == nil {
		return
	}
	in.snaps.Add(uint64(n))
}

// snapshotsDropped counts every tag of a shed report.
func (in *instruments) snapshotsDropped(n int) {
	if in == nil {
		return
	}
	in.snapsDrop.Add(uint64(n))
}

func (in *instruments) spectrum(ok bool) {
	if in == nil {
		return
	}
	if ok {
		in.spectraOK.Inc()
	} else {
		in.spectraFailed.Inc()
	}
}

func (in *instruments) baselineConfirmed(reader string) {
	if in == nil {
		return
	}
	in.baselines[reader].Inc()
}

func (in *instruments) sequenceAssembled() {
	if in == nil {
		return
	}
	in.seqAssembled.Inc()
}

// sequenceEvicted counts an eviction and records the cause (ttl or
// cap) as an event — the distinction Stats folds into one counter.
func (in *instruments) sequenceEvicted(cause string) {
	if in == nil {
		return
	}
	in.seqEvicted.Inc()
	in.reg.Event("sequence_evicted_" + cause)
}

func (in *instruments) lateReport() {
	if in == nil {
		return
	}
	in.late.Inc()
}

// fix counts a fusion outcome. A degraded fix (fused from the live
// quorum while a reader was down) lands in result="degraded" so
// dashboards can distinguish full-evidence from quorum fixes.
func (in *instruments) fix(ok, degraded bool) {
	if in == nil {
		return
	}
	switch {
	case !ok:
		in.fixMiss.Inc()
	case degraded:
		in.fixDegraded.Inc()
	default:
		in.fixOK.Inc()
	}
}
