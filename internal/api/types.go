// Package api is the machine-consumable contract for the D-Watch
// /api/v1 HTTP surface: one versioned Go struct per request and
// response body, plus a typed client (see Client).
//
// Everything that serves or consumes /api/v1 — the serve plane's
// handlers, the dwatch-gateway fan-in proxy, the smoke scripts'
// assertion tool (cmd/dwatch-api), and the tests — marshals these
// types, so a field rename is a compile error (or a golden-test
// failure) instead of a silently divergent wire shape.
//
// The package is deliberately stdlib-only: a consumer of the API
// should not inherit the server's DSP, pipeline, or WAL dependency
// graph. Types that mirror an internal producer (PipelineStats ↔
// pipeline.Stats, RFHealth ↔ health.Snapshot, WALStatus ↔ wal.Status,
// TraceSummary/Trace ↔ tracing.Summary/Data) are pinned against it by
// compatibility tests in this package, and against fixed JSON by
// golden round-trip tests.
package api

import "time"

// Error is the uniform error envelope every /api/v1 endpoint returns
// on failure:
//
//	{"error": {"code": "env_not_found", "message": "..."}}
//
// Code is a stable machine-readable identifier; Message is for humans.
type Error struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody is the envelope payload.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// PositionSchema is the version stamped on every published Position.
// v1 was the pre-fault-tolerance shape; v2 adds degraded-mode
// provenance (degraded flag + contributing readers); v3 adds the
// sequence trace ID.
const PositionSchema = 3

// Position is one localization fix as the API exposes it: flattened
// coordinates plus provenance, JSON-ready for both the latest-fix
// endpoint and the SSE stream.
type Position struct {
	// Schema is the Position JSON schema version (PositionSchema);
	// stamped by Publish so clients can detect shape changes.
	Schema     int     `json:"schema"`
	Env        string  `json:"env"`
	Seq        uint32  `json:"seq"`
	X          float64 `json:"x"`
	Y          float64 `json:"y"`
	Confidence float64 `json:"confidence"`
	Views      int     `json:"views"`
	// Readers lists the readers whose evidence joined the fix (sorted;
	// schema ≥ 2).
	Readers []string `json:"readers,omitempty"`
	// Degraded marks a fix fused from a live quorum while at least one
	// expected reader was down (schema ≥ 2).
	Degraded bool `json:"degraded,omitempty"`
	// TraceID names the sequence trace behind this fix when tracing is
	// enabled; resolve it at /api/v1/traces/{id} (schema ≥ 3).
	TraceID string    `json:"trace_id,omitempty"`
	Time    time.Time `json:"time"`
}

// PositionsResponse is the GET /api/v1/positions and
// /api/v1/{env}/positions body: the latest fix per covered
// environment.
type PositionsResponse struct {
	Positions []Position `json:"positions"`
}

// EnvInfo is one environment's listing entry on /api/v1/envs.
type EnvInfo struct {
	ID string `json:"id"`
	// Name is the scenario/deployment name when it differs from ID.
	Name string `json:"name,omitempty"`
	// Slot is the environment's home slot on the fleet's consistent
	// hash ring (stable under env add/remove; the placement unit the
	// cluster plane shards by).
	Slot    int       `json:"slot"`
	Readers int       `json:"readers"`
	Tags    int       `json:"tags,omitempty"`
	Fixes   uint64    `json:"fixes"`
	Reports uint64    `json:"reports"`
	Added   time.Time `json:"added"`
	// Node is the cluster node currently serving this environment.
	// Empty on a single-process fleet; stamped by the gateway.
	Node string `json:"node,omitempty"`
}

// EnvsResponse is the GET /api/v1/envs body.
type EnvsResponse struct {
	Envs []EnvInfo `json:"envs"`
}

// ReaderStatus is one reader's supervision state as /readyz exposes it.
type ReaderStatus struct {
	ID   string `json:"id"`
	Addr string `json:"addr,omitempty"`
	// State is "up", "down", "connecting", or "half-open".
	State      string    `json:"state"`
	Since      time.Time `json:"since,omitempty"`
	Reconnects uint64    `json:"reconnects,omitempty"`
	LastError  string    `json:"last_error,omitempty"`
}

// ReadyResponse is the /readyz body: overall readiness plus the
// per-reader session states and degraded-mode flag the fault-tolerant
// deployment exposes.
type ReadyResponse struct {
	Ready    bool           `json:"ready"`
	Reason   string         `json:"reason,omitempty"`
	Degraded bool           `json:"degraded"`
	Readers  []ReaderStatus `json:"readers,omitempty"`
}

// LatencySummary mirrors stats.HistogramSummary: the digest of one
// per-stage latency histogram (seconds).
type LatencySummary struct {
	Count uint64  `json:"Count"`
	Mean  float64 `json:"Mean"`
	Min   float64 `json:"Min"`
	Max   float64 `json:"Max"`
	P50   float64 `json:"P50"`
	P90   float64 `json:"P90"`
	P99   float64 `json:"P99"`
}

// PipelineStats mirrors pipeline.Stats: the /api/v1/stats and
// /api/v1/{env}/stats body. Field names are the wire contract
// (pipeline.Stats marshals bare Go field names); the compatibility
// test pins the two shapes against each other.
type PipelineStats struct {
	ReportsIn        uint64 `json:"ReportsIn"`
	ReportsRejected  uint64 `json:"ReportsRejected"`
	SnapshotsIn      uint64 `json:"SnapshotsIn"`
	SnapshotsDropped uint64 `json:"SnapshotsDropped"`

	SpectraComputed uint64 `json:"SpectraComputed"`
	SpectraFailed   uint64 `json:"SpectraFailed"`

	BaselinesConfirmed uint64 `json:"BaselinesConfirmed"`
	SequencesAssembled uint64 `json:"SequencesAssembled"`
	SequencesEvicted   uint64 `json:"SequencesEvicted"`
	LateReports        uint64 `json:"LateReports"`
	Fixes              uint64 `json:"Fixes"`
	DegradedFixes      uint64 `json:"DegradedFixes"`
	Misses             uint64 `json:"Misses"`

	QueueDepth       int `json:"QueueDepth"`
	PendingSequences int `json:"PendingSequences"`

	ComputeLatency LatencySummary `json:"ComputeLatency"`
	FuseLatency    LatencySummary `json:"FuseLatency"`
}

// FleetStats is the aggregate /api/v1/stats body (dwatchd, and the
// gateway's fan-in): one pipeline snapshot per environment ID.
type FleetStats map[string]PipelineStats

// PathHealth mirrors health.PathHealth: one tracked P-MUSIC path.
type PathHealth struct {
	AngleDeg float64   `json:"angle_deg"`
	Power    float64   `json:"power"`
	Baseline float64   `json:"baseline"`
	Drift    bool      `json:"drift"`
	LastSeen time.Time `json:"last_seen"`
}

// TagHealth mirrors health.TagHealth: one (reader, tag) read stream.
type TagHealth struct {
	EPC      string       `json:"epc"`
	Reads    uint64       `json:"reads"`
	RateHz   float64      `json:"rate_hz"`
	LastSeen time.Time    `json:"last_seen"`
	Paths    []PathHealth `json:"paths,omitempty"`
}

// ReaderHealth mirrors health.ReaderHealth.
type ReaderHealth struct {
	ID                  string      `json:"id"`
	CalibrationResidual float64     `json:"calibration_residual_rad"`
	Drifting            int         `json:"drifting_paths"`
	Tags                []TagHealth `json:"tags"`
}

// RFHealth mirrors health.Snapshot: the /api/v1/health body.
type RFHealth struct {
	Readers []ReaderHealth `json:"readers"`
}

// TraceSpan mirrors tracing.Span: one stage span inside a sequence
// trace. QueueNS is the queue-wait share in nanoseconds.
type TraceSpan struct {
	Stage   string    `json:"stage"`
	Reader  string    `json:"reader,omitempty"`
	Tag     string    `json:"tag,omitempty"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
	QueueNS int64     `json:"queue_ns"`
}

// TraceEvent mirrors tracing.Event.
type TraceEvent struct {
	Time   time.Time `json:"time"`
	Name   string    `json:"name"`
	Detail string    `json:"detail,omitempty"`
}

// Trace mirrors tracing.Data: the GET /api/v1/traces/{id} body.
type Trace struct {
	ID       string       `json:"id"`
	Seq      uint32       `json:"seq"`
	Start    time.Time    `json:"start"`
	End      time.Time    `json:"end,omitempty"`
	Outcome  string       `json:"outcome,omitempty"`
	Degraded bool         `json:"degraded,omitempty"`
	Pinned   bool         `json:"pinned,omitempty"`
	Spans    []TraceSpan  `json:"spans"`
	Events   []TraceEvent `json:"events,omitempty"`
}

// TraceSummary mirrors tracing.Summary: one listing row on
// /api/v1/traces. DurationNS is nanoseconds.
type TraceSummary struct {
	ID         string    `json:"id"`
	Seq        uint32    `json:"seq"`
	Start      time.Time `json:"start"`
	DurationNS int64     `json:"duration_ns"`
	Outcome    string    `json:"outcome"`
	Degraded   bool      `json:"degraded,omitempty"`
	Pinned     bool      `json:"pinned,omitempty"`
	Spans      int       `json:"spans"`
	Events     int       `json:"events"`
}

// TracesResponse is the GET /api/v1/traces body (newest first).
type TracesResponse struct {
	Traces []TraceSummary `json:"traces"`
}

// WALDamage mirrors wal.Damage: where recovery stopped trusting a
// segment.
type WALDamage struct {
	Segment string `json:"segment"`
	Offset  int64  `json:"offset"`
	Reason  string `json:"reason"`
}

// WALStatus mirrors wal.Status: the /api/v1/wal body.
type WALStatus struct {
	Dir           string     `json:"dir"`
	Fsync         string     `json:"fsync"`
	Segments      int        `json:"segments"`
	ActiveSegment string     `json:"active_segment"`
	Bytes         int64      `json:"bytes"`
	NextSeq       uint64     `json:"next_seq"`
	Appended      uint64     `json:"appended_records"`
	AppendedBytes uint64     `json:"appended_bytes"`
	Fsyncs        uint64     `json:"fsyncs"`
	Rotations     uint64     `json:"rotations"`
	Deleted       uint64     `json:"retention_deleted_segments"`
	Recovered     int        `json:"recovered_records"`
	Truncated     int64      `json:"truncated_tail_bytes"`
	Damage        *WALDamage `json:"damage,omitempty"`
	LastAppend    time.Time  `json:"last_append,omitempty"`
}
