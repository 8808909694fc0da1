package wal

import (
	"time"

	"dwatch/internal/obs"
	"dwatch/internal/stats"
)

// instruments mirrors the WAL's counters onto an obs.Registry. All
// methods are no-ops on a nil receiver, so the append hot path carries
// no "is observability on?" branches.
type instruments struct {
	appends       *obs.Counter
	appendedBytes *obs.Counter
	appendLatency *obs.Histogram
	fsyncs        *obs.Counter
	rotations     *obs.Counter
	deletes       *obs.Counter
	recovered     *obs.Counter
	truncated     *obs.Counter
	// dropGauges detaches the segment/byte gauge funcs on Close, so a
	// registry that outlives the WAL neither sums it nor keeps it alive.
	dropGauges []func()
}

// newInstruments registers the dwatch_wal_* families and seeds the
// recovery counters from what Open found. Returns nil when reg is nil.
func newInstruments(reg *obs.Registry, w *WAL) *instruments {
	if reg == nil {
		return nil
	}
	ins := &instruments{
		appends: reg.Counter("dwatch_wal_appends_total",
			"Records appended to the ingest WAL."),
		appendedBytes: reg.Counter("dwatch_wal_appended_bytes_total",
			"Bytes appended to the ingest WAL (framing included)."),
		appendLatency: reg.Histogram("dwatch_wal_append_seconds",
			"WAL append latency (encode + write, plus fsync under the always policy).",
			stats.LatencyBounds()),
		fsyncs: reg.Counter("dwatch_wal_fsyncs_total",
			"fsync calls issued by the WAL (per-append, interval, rotation, and close)."),
		rotations: reg.Counter("dwatch_wal_rotations_total",
			"WAL segment rotations."),
		deletes: reg.Counter("dwatch_wal_retention_deleted_segments_total",
			"WAL segments deleted by retention."),
		recovered: reg.Counter("dwatch_wal_recovered_records_total",
			"Records recovered from the WAL at open."),
		truncated: reg.Counter("dwatch_wal_truncated_tail_bytes_total",
			"Bytes truncated from torn WAL tails at open."),
	}
	ins.recovered.Add(uint64(w.recovered))
	ins.truncated.Add(uint64(w.truncatedBytes))
	ins.dropGauges = []func(){
		reg.GaugeFunc("dwatch_wal_segments",
			"WAL segment files currently on disk.", func() float64 {
				return float64(w.Status().Segments)
			}),
		reg.GaugeFunc("dwatch_wal_bytes",
			"Total WAL bytes currently on disk.", func() float64 {
				return float64(w.Status().Bytes)
			}),
	}
	return ins
}

// close detaches the gauge funcs.
func (i *instruments) close() {
	if i == nil {
		return
	}
	for _, drop := range i.dropGauges {
		drop()
	}
}

func (i *instruments) append(d time.Duration, recLen int64) {
	if i == nil {
		return
	}
	i.appends.Inc()
	i.appendedBytes.Add(uint64(recLen))
	i.appendLatency.ObserveDuration(d)
}

func (i *instruments) fsync() {
	if i == nil {
		return
	}
	i.fsyncs.Inc()
}

func (i *instruments) rotate() {
	if i == nil {
		return
	}
	i.rotations.Inc()
}

func (i *instruments) retentionDelete() {
	if i == nil {
		return
	}
	i.deletes.Inc()
}
