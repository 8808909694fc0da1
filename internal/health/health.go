// Package health is the RF physical-layer health monitor: where
// internal/obs watches the pipeline's control flow and internal/session
// watches reader TCP liveness, this package watches the radio channel
// itself — the long-horizon link-quality statistics DFL systems depend
// on (cf. Kaltiokallio et al. on RSS spectral properties, Schmidhammer
// et al. on calibration drift) that the pipeline computes per snapshot
// and would otherwise throw away.
//
// For every (reader, tag) pair the Monitor maintains:
//
//   - Read-rate counters: total reads plus an EWMA reads/sec estimate
//     from inter-read intervals, so a tag whose inventory rate quietly
//     degrades (detuned, occluded, forward-link starved) is visible
//     without replaying a capture.
//   - Per-path P-MUSIC power baselines: each observed spectrum's peaks
//     are matched by angle (within pmusic.PeakMatchTol) to tracked
//     paths; each path carries a slow EWMA baseline and a fast EWMA of
//     current peak power. A fast/slow divergence beyond DriftRatio
//     flags the path as drifting — the signature of furniture moved, a
//     reader bumped, or genuine persistent blockage — and rising edges
//     count as anomalies.
//   - Calibration residual: an EWMA of the mean absolute angular
//     deviation of matched peaks from their tracked path angles, per
//     reader. Phase-calibration drift shifts every AoA estimate, so a
//     growing residual says "re-run Section 4.1 calibration" before
//     fixes silently walk away.
//
// Observations arrive from the pipeline's round sequencers, one call
// per applied tag read; snapshots are read concurrently by the
// /api/v1/health endpoint. When a metrics registry is attached the
// same state is exported as dwatch_rf_* families.
//
// The monitor keeps a bounded sample of full spectra, not all of them.
// Baseline rounds pass every tag's spectrum. After its baseline a
// reader's online fixes need no full spectra, so each online report
// passes one, round-robin over the reader's K baseline tags, and a bare
// read (nil spectrum) for every other tag. Read counts and read rates
// therefore still see every round. Each pair's path statistics and the
// calibration residual refresh once every K online rounds: K is up to
// 21 on the library preset and 26 on table, 2.1 s and 2.6 s at the
// paper's 100 ms period. The EWMA weights count observations, so their
// horizons are K times longer in wall time than at one spectrum per
// round — SlowAlpha's ~50 observations span about 100 s on library —
// and a drift shows after a few cycles, not a few rounds.
package health

import (
	"encoding/hex"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"dwatch/internal/obs"
	"dwatch/internal/pmusic"
)

// Metric families exported when a registry is attached.
const (
	metricReads     = "dwatch_rf_reads_total"
	metricReadRate  = "dwatch_rf_read_rate_hz"
	metricPathPower = "dwatch_rf_path_power"
	metricPathBase  = "dwatch_rf_path_power_baseline"
	metricDrift     = "dwatch_rf_path_drift"
	metricAnomalies = "dwatch_rf_anomalies_total"
	metricResidual  = "dwatch_rf_calibration_residual_radians"
	metricTags      = "dwatch_rf_tags_tracked"
)

// Options tunes the monitor. The zero value is production-ready.
type Options struct {
	// RateAlpha is the EWMA weight for the read-rate estimate (0 = 0.2).
	RateAlpha float64
	// FastAlpha is the EWMA weight for current path power (0 = 0.3).
	FastAlpha float64
	// SlowAlpha is the EWMA weight for the path-power baseline
	// (0 = 0.02, ~50-observation horizon).
	SlowAlpha float64
	// DriftRatio flags a path when |fast-baseline|/baseline exceeds it
	// (0 = 0.5, the half-power change the paper's drop detector also
	// treats as significant).
	DriftRatio float64
	// PeakRatio is the minimum peak-to-max ratio for a spectrum local
	// maximum to be tracked as a path (0 = 0.1).
	PeakRatio float64
	// MaxPaths caps tracked paths per (reader, tag); the stalest path
	// is evicted for a new arrival (0 = 8).
	MaxPaths int
	// MatchTol is the angular tolerance for matching an observed peak
	// to a tracked path (0 = pmusic.PeakMatchTol).
	MatchTol float64
}

func (o Options) withDefaults() Options {
	if o.RateAlpha == 0 {
		o.RateAlpha = 0.2
	}
	if o.FastAlpha == 0 {
		o.FastAlpha = 0.3
	}
	if o.SlowAlpha == 0 {
		o.SlowAlpha = 0.02
	}
	if o.DriftRatio == 0 {
		o.DriftRatio = 0.5
	}
	if o.PeakRatio == 0 {
		o.PeakRatio = 0.1
	}
	if o.MaxPaths == 0 {
		o.MaxPaths = 8
	}
	if o.MatchTol == 0 {
		o.MatchTol = pmusic.PeakMatchTol
	}
	return o
}

// path is one tracked propagation path of a (reader, tag) pair.
type path struct {
	angle    float64 // EWMA of matched peak angle, radians
	baseline float64 // slow EWMA of peak power
	fast     float64 // fast EWMA of peak power
	lastSeen time.Time
	drift    bool

	powerG *obs.Gauge
	baseG  *obs.Gauge
	driftG *obs.Gauge
}

// tagState is the per-(reader, tag) record.
type tagState struct {
	epc      string // hex
	reads    uint64
	lastSeen time.Time
	rate     float64 // EWMA reads/sec
	paths    []*path

	readsC *obs.Counter
	rateG  *obs.Gauge
}

// readerState groups a reader's tags and its calibration residual.
type readerState struct {
	tags     map[string]*tagState
	residual float64 // EWMA |angle deviation|, radians
	resSet   bool

	residualG *obs.Gauge
}

// Monitor is the RF-health monitor. A nil *Monitor no-ops everywhere
// so the pipeline threads it unconditionally.
type Monitor struct {
	opts Options
	reg  *obs.Registry

	mu      sync.Mutex
	readers map[string]*readerState

	reads     *obs.CounterVec
	rateVec   *obs.GaugeVec
	powerVec  *obs.GaugeVec
	baseVec   *obs.GaugeVec
	driftVec  *obs.GaugeVec
	anomalies *obs.CounterVec
	resVec    *obs.GaugeVec
	dropTags  func() // detaches the tracked-tags gauge func (Close)
}

// New builds a Monitor. reg may be nil (no metric export; snapshots
// still work).
func New(reg *obs.Registry, opts Options) *Monitor {
	m := &Monitor{
		opts:    opts.withDefaults(),
		reg:     reg,
		readers: map[string]*readerState{},
	}
	if reg != nil {
		m.reads = reg.CounterVec(metricReads, "Tag reads observed per (reader, tag).", "reader", "epc")
		m.rateVec = reg.GaugeVec(metricReadRate, "EWMA tag read rate in reads/sec.", "reader", "epc")
		m.powerVec = reg.GaugeVec(metricPathPower, "Fast EWMA of per-path P-MUSIC peak power.", "reader", "epc", "path")
		m.baseVec = reg.GaugeVec(metricPathBase, "Slow EWMA baseline of per-path P-MUSIC peak power.", "reader", "epc", "path")
		m.driftVec = reg.GaugeVec(metricDrift, "1 when a path's power has drifted beyond the ratio threshold.", "reader", "epc", "path")
		m.anomalies = reg.CounterVec(metricAnomalies, "RF anomalies by kind (power_drift, new_path).", "reader", "kind")
		m.resVec = reg.GaugeVec(metricResidual, "EWMA absolute peak-angle deviation from tracked paths.", "reader")
		m.dropTags = reg.GaugeFunc(metricTags, "Distinct (reader, tag) pairs tracked.", m.tagCount)
	}
	return m
}

// Close detaches the monitor's collection-time gauge from the registry,
// for a monitor that shuts down before the registry does (a removed
// fleet environment): the registry then neither counts its tags nor
// keeps it reachable. Its labeled series stay until their labels are
// removed. Nil-safe and idempotent.
func (m *Monitor) Close() {
	if m == nil || m.dropTags == nil {
		return
	}
	m.dropTags()
}

func (m *Monitor) tagCount() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, r := range m.readers {
		n += len(r.tags)
	}
	return float64(n)
}

// EPCKey renders a raw EPC as the hex form used for labels and JSON
// (EPCs are arbitrary 96-bit identifiers, not printable text).
func EPCKey(epc string) string { return hex.EncodeToString([]byte(epc)) }

// Observe folds one computed tag spectrum into the monitor. reader is
// the deployment reader ID, epc the raw (unencoded) tag identity, sp
// the P-MUSIC spectrum the pipeline just computed. Nil-safe; a nil sp
// still counts the read.
func (m *Monitor) Observe(reader, epc string, sp *pmusic.Spectrum, now time.Time) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()

	rs := m.readers[reader]
	if rs == nil {
		rs = &readerState{tags: map[string]*tagState{}}
		if m.reg != nil {
			rs.residualG = m.resVec.With(reader)
		}
		m.readers[reader] = rs
	}
	key := EPCKey(epc)
	ts := rs.tags[key]
	if ts == nil {
		ts = &tagState{epc: key}
		if m.reg != nil {
			ts.readsC = m.reads.With(reader, key)
			ts.rateG = m.rateVec.With(reader, key)
		}
		rs.tags[key] = ts
	}

	// Read accounting: count, then fold the inter-read interval into
	// the rate EWMA (first read seeds nothing — one sample is not a
	// rate).
	ts.reads++
	ts.readsC.Inc()
	if !ts.lastSeen.IsZero() {
		if dt := now.Sub(ts.lastSeen).Seconds(); dt > 0 {
			inst := 1 / dt
			if ts.rate == 0 {
				ts.rate = inst
			} else {
				ts.rate += m.opts.RateAlpha * (inst - ts.rate)
			}
			ts.rateG.Set(ts.rate)
		}
	}
	ts.lastSeen = now

	if sp == nil {
		return
	}
	m.observePaths(reader, rs, ts, sp, now)
}

// observePaths matches the spectrum's peaks to tracked paths and
// updates the power baselines, drift flags, and calibration residual.
func (m *Monitor) observePaths(reader string, rs *readerState, ts *tagState, sp *pmusic.Spectrum, now time.Time) {
	peaks := sp.Peaks(m.opts.PeakRatio)
	if len(peaks) > m.opts.MaxPaths {
		peaks = peaks[:m.opts.MaxPaths] // strongest first
	}
	var devSum float64
	matched := 0
	for _, pk := range peaks {
		var best *path
		bestD := math.Inf(1)
		for _, p := range ts.paths {
			if d := math.Abs(p.angle - pk.Angle); d < bestD {
				best, bestD = p, d
			}
		}
		if best == nil || bestD > m.opts.MatchTol {
			// New path: track it, evicting the stalest when full.
			p := &path{angle: pk.Angle, baseline: pk.Amplitude, fast: pk.Amplitude, lastSeen: now}
			if len(ts.paths) >= m.opts.MaxPaths {
				si := 0
				for i, q := range ts.paths {
					if q.lastSeen.Before(ts.paths[si].lastSeen) {
						si = i
					}
				}
				if m.reg != nil {
					// Reuse the evicted slot's gauges so label
					// cardinality stays bounded at MaxPaths.
					p.powerG, p.baseG, p.driftG = ts.paths[si].powerG, ts.paths[si].baseG, ts.paths[si].driftG
				}
				ts.paths[si] = p
			} else {
				if m.reg != nil {
					idx := pathLabel(len(ts.paths))
					p.powerG = m.powerVec.With(reader, ts.epc, idx)
					p.baseG = m.baseVec.With(reader, ts.epc, idx)
					p.driftG = m.driftVec.With(reader, ts.epc, idx)
				}
				ts.paths = append(ts.paths, p)
			}
			p.powerG.Set(p.fast)
			p.baseG.Set(p.baseline)
			p.driftG.Set(0)
			m.anomaly(reader, "new_path")
			continue
		}
		// Matched: update EWMAs and the drift flag.
		devSum += bestD
		matched++
		// Angle adapts at the slow rate: path geometry is quasi-static,
		// and a persistent angular offset must stay visible in the
		// calibration residual instead of being absorbed.
		best.angle += m.opts.SlowAlpha * (pk.Angle - best.angle)
		best.fast += m.opts.FastAlpha * (pk.Amplitude - best.fast)
		best.baseline += m.opts.SlowAlpha * (pk.Amplitude - best.baseline)
		best.lastSeen = now
		drift := best.baseline > 0 &&
			math.Abs(best.fast-best.baseline)/best.baseline > m.opts.DriftRatio
		if drift && !best.drift {
			m.anomaly(reader, "power_drift")
		}
		best.drift = drift
		best.powerG.Set(best.fast)
		best.baseG.Set(best.baseline)
		if drift {
			best.driftG.Set(1)
		} else {
			best.driftG.Set(0)
		}
	}
	if matched > 0 {
		dev := devSum / float64(matched)
		if !rs.resSet {
			rs.residual, rs.resSet = dev, true
		} else {
			rs.residual += m.opts.RateAlpha * (dev - rs.residual)
		}
		rs.residualG.Set(rs.residual)
	}
}

func (m *Monitor) anomaly(reader, kind string) {
	if m.reg != nil {
		m.anomalies.With(reader, kind).Inc()
	}
}

// pathLabel renders a path slot index as its metric label value.
func pathLabel(i int) string { return strconv.Itoa(i) }

// PathHealth is one tracked path as /api/v1/health exposes it.
type PathHealth struct {
	AngleDeg float64   `json:"angle_deg"`
	Power    float64   `json:"power"`
	Baseline float64   `json:"baseline"`
	Drift    bool      `json:"drift"`
	LastSeen time.Time `json:"last_seen"`
}

// TagHealth is one (reader, tag) record.
type TagHealth struct {
	EPC      string       `json:"epc"` // hex
	Reads    uint64       `json:"reads"`
	RateHz   float64      `json:"rate_hz"`
	LastSeen time.Time    `json:"last_seen"`
	Paths    []PathHealth `json:"paths,omitempty"`
}

// ReaderHealth is one reader's RF state.
type ReaderHealth struct {
	ID string `json:"id"`
	// CalibrationResidual is the EWMA absolute peak-angle deviation in
	// radians; growth over time indicates phase-calibration drift.
	CalibrationResidual float64     `json:"calibration_residual_rad"`
	Drifting            int         `json:"drifting_paths"`
	Tags                []TagHealth `json:"tags"`
}

// Snapshot is the /api/v1/health body.
type Snapshot struct {
	Readers []ReaderHealth `json:"readers"`
}

// Snapshot returns a deterministic (sorted) copy of the monitor state.
func (m *Monitor) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := Snapshot{Readers: make([]ReaderHealth, 0, len(m.readers))}
	for id, rs := range m.readers {
		rh := ReaderHealth{ID: id, CalibrationResidual: rs.residual}
		for _, ts := range rs.tags {
			th := TagHealth{EPC: ts.epc, Reads: ts.reads, RateHz: ts.rate, LastSeen: ts.lastSeen}
			for _, p := range ts.paths {
				if p.drift {
					rh.Drifting++
				}
				th.Paths = append(th.Paths, PathHealth{
					AngleDeg: p.angle * 180 / math.Pi,
					Power:    p.fast, Baseline: p.baseline,
					Drift: p.drift, LastSeen: p.lastSeen,
				})
			}
			sort.Slice(th.Paths, func(i, j int) bool { return th.Paths[i].AngleDeg < th.Paths[j].AngleDeg })
			rh.Tags = append(rh.Tags, th)
		}
		sort.Slice(rh.Tags, func(i, j int) bool { return rh.Tags[i].EPC < rh.Tags[j].EPC })
		out.Readers = append(out.Readers, rh)
	}
	sort.Slice(out.Readers, func(i, j int) bool { return out.Readers[i].ID < out.Readers[j].ID })
	return out
}
