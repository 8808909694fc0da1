package pipeline

import (
	"sync/atomic"

	"dwatch/internal/stats"
)

// counters is the pipeline's hot-path instrumentation: plain atomics,
// updated lock-free from every stage.
type counters struct {
	reportsIn          atomic.Uint64
	reportsRejected    atomic.Uint64
	snapshotsIn        atomic.Uint64
	snapshotsDropped   atomic.Uint64
	spectraComputed    atomic.Uint64
	spectraFailed      atomic.Uint64
	baselinesConfirmed atomic.Uint64
	sequencesAssembled atomic.Uint64
	sequencesEvicted   atomic.Uint64
	lateReports        atomic.Uint64
	fixes              atomic.Uint64
	degradedFixes      atomic.Uint64
	misses             atomic.Uint64
}

// Stats is a point-in-time snapshot of the pipeline's health: flow
// counters per stage, the current queue depth, and per-stage latency
// digests.
type Stats struct {
	// Ingest stage.
	ReportsIn        uint64 // reports accepted from known readers
	ReportsRejected  uint64 // reports from unknown readers
	SnapshotsIn      uint64 // per-tag snapshots enqueued (batched per report)
	SnapshotsDropped uint64 // snapshots shed by the DropOldest policy

	// Spectrum worker pool. One count per tag snapshot, whether the
	// stage computed its full P-MUSIC spectrum, only the beam power at
	// its monitored peaks, or (no monitored peak) only validated it.
	SpectraComputed uint64 // tag snapshots evaluated
	SpectraFailed   uint64 // tag snapshots rejected (bad rows or a failed compute)

	// Assembler / fusion.
	BaselinesConfirmed uint64 // readers whose baseline completed
	SequencesAssembled uint64 // sequences with evidence from every reader
	SequencesEvicted   uint64 // incomplete sequences dropped (TTL or cap)
	LateReports        uint64 // reports for already-fused/evicted sequences
	Fixes              uint64
	DegradedFixes      uint64 // fixes fused from the live quorum with a reader down
	Misses             uint64

	// QueueDepth is the instantaneous report-queue occupancy (whole
	// reports — dispatch is batched, one queue slot per report).
	QueueDepth int
	// PendingSequences is how many sequences are mid-assembly across
	// all fusion shards, sampled from the shared atomic mirror of the
	// shard group tables.
	PendingSequences int

	// ComputeLatency digests per-snapshot spectrum-stage time (s).
	ComputeLatency stats.HistogramSummary
	// FuseLatency digests per-sequence view-building+localize time (s).
	FuseLatency stats.HistogramSummary
}

// Stats snapshots the pipeline counters. Safe to call at any time from
// any goroutine: every field is backed by an atomic or a lock — the
// fusion shards publish their pending-sequence count through a shared
// atomic mirror, so there is no unsynchronized read of shard state
// (TestStatsRaceWithAssembler drives this under the race detector).
// The snapshot is not a consistent cut across stages: counters are
// sampled independently while work is in flight, and only settle into
// a mutually consistent view after Drain.
func (p *Pipeline) Stats() Stats {
	return Stats{
		ReportsIn:          p.c.reportsIn.Load(),
		ReportsRejected:    p.c.reportsRejected.Load(),
		SnapshotsIn:        p.c.snapshotsIn.Load(),
		SnapshotsDropped:   p.c.snapshotsDropped.Load(),
		SpectraComputed:    p.c.spectraComputed.Load(),
		SpectraFailed:      p.c.spectraFailed.Load(),
		BaselinesConfirmed: p.c.baselinesConfirmed.Load(),
		SequencesAssembled: p.c.sequencesAssembled.Load(),
		SequencesEvicted:   p.c.sequencesEvicted.Load(),
		LateReports:        p.c.lateReports.Load(),
		Fixes:              p.c.fixes.Load(),
		DegradedFixes:      p.c.degradedFixes.Load(),
		Misses:             p.c.misses.Load(),
		QueueDepth:         len(p.jobs),
		PendingSequences:   p.asm.pendingSequences(),
		ComputeLatency:     p.decodeHist.Summary(),
		FuseLatency:        p.fuseHist.Summary(),
	}
}
