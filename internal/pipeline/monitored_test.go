package pipeline

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dwatch/internal/cmatrix"
	"dwatch/internal/dwatch"
	"dwatch/internal/health"
	"dwatch/internal/llrp"
	"dwatch/internal/music"
	"dwatch/internal/pmusic"
	"dwatch/internal/rf"
	"dwatch/internal/sim"
)

// monitoredRig is a one-worker pipeline over the table scenario whose
// full-spectrum path runs through a counting compute seam, driven one
// round at a time. With one worker every report is applied before the
// next is evaluated, so online rounds always find their reader's plan.
type monitoredRig struct {
	sc      *sim.Scenario
	p       *Pipeline
	reports []*llrp.ROAccessReport
	full    atomic.Int64 // full spectra computed
	wait    func() []Fix
}

func newMonitoredRig(t *testing.T, onlineRounds int, mon *health.Monitor) *monitoredRig {
	t.Helper()
	arrays, sc := testArrays(t)
	r := &monitoredRig{sc: sc, reports: genReports(t, sc, onlineRounds, 4)}
	p, err := newFromConfig(Config{Arrays: arrays, Grid: sc.Grid, Workers: 1, Health: mon})
	if err != nil {
		t.Fatal(err)
	}
	p.compute = func(snap [][]complex128, arr *rf.Array, opts pmusic.Options) (*pmusic.Spectrum, error) {
		r.full.Add(1)
		x, err := cmatrix.FromRows(snap)
		if err != nil {
			return nil, err
		}
		return pmusic.Compute(x, arr, opts)
	}
	// A clock that ticks on every read keeps each report's health
	// observation time distinct.
	var tick atomic.Int64
	t0 := time.Date(2026, 10, 1, 0, 0, 0, 0, time.UTC)
	p.now = func() time.Time { return t0.Add(time.Duration(tick.Add(1)) * time.Millisecond) }
	p.Start()
	r.p, r.wait = p, drainFixes(p)
	return r
}

// round ingests every reader's report of one generated round and
// waits until each reader's sequencer has applied it.
func (r *monitoredRig) round(t *testing.T, k int) {
	t.Helper()
	n := len(r.sc.Readers)
	for _, rep := range r.reports[k*n : (k+1)*n] {
		if err := r.p.Ingest(rep); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for id, rs := range r.p.asm.seqs {
		for {
			rs.mu.Lock()
			next := rs.next
			rs.mu.Unlock()
			if next > k {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("reader %s: round %d not applied", id, k)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestHealthSampleCadence: after the baseline, an online report keeps
// exactly one full spectrum — its reader's health sample — so over K
// online rounds (K = the reader's confirmed tag count) every tag's
// reads rise by K while its path statistics refresh exactly once.
func TestHealthSampleCadence(t *testing.T) {
	mon := health.New(nil, health.Options{})
	k := sim.TableConfig().Tags
	r := newMonitoredRig(t, k, mon)
	r.round(t, 0)
	r.round(t, 1)
	for id, rs := range r.p.asm.seqs {
		if pl := rs.plan.Load(); pl == nil || len(pl.keys) != k {
			t.Fatalf("reader %s: plan %+v, want %d keys", id, pl, k)
		}
	}
	type tagKey struct{ reader, epc string }
	snap := func() map[tagKey]health.TagHealth {
		out := map[tagKey]health.TagHealth{}
		for _, rh := range mon.Snapshot().Readers {
			for _, th := range rh.Tags {
				out[tagKey{rh.ID, th.EPC}] = th
			}
		}
		return out
	}
	// lastPath is the latest LastSeen over a tag's paths: it advances
	// exactly when an observed spectrum matched or added a path.
	lastPath := func(th health.TagHealth) time.Time {
		var last time.Time
		for _, ph := range th.Paths {
			if ph.LastSeen.After(last) {
				last = ph.LastSeen
			}
		}
		return last
	}
	base := snap()
	prev := base
	refreshed := map[tagKey]int{}
	r.full.Store(0)
	for round := 2; round < 2+k; round++ {
		r.round(t, round)
		cur := snap()
		for key, th := range cur {
			if lastPath(th).After(lastPath(prev[key])) {
				refreshed[key]++
			}
		}
		prev = cur
	}
	r.p.Drain()
	r.wait()

	if want := int64(k * len(r.sc.Readers)); r.full.Load() != want {
		t.Fatalf("full spectra over %d online rounds = %d, want %d (one per reader per round)", k, r.full.Load(), want)
	}
	if len(prev) != k*len(r.sc.Readers) {
		t.Fatalf("health tracks %d pairs, want %d", len(prev), k*len(r.sc.Readers))
	}
	for key, th := range prev {
		if got := th.Reads - base[key].Reads; got != uint64(k) {
			t.Errorf("%s/%s: reads rose by %d over %d rounds, want %d", key.reader, key.epc, got, k, k)
		}
		if refreshed[key] != 1 {
			t.Errorf("%s/%s: paths refreshed in %d of %d rounds, want 1", key.reader, key.epc, refreshed[key], k)
		}
	}
}

// TestMonitoredPathBadSnapshotsCountAsFailed: in a confirmed reader's
// online round, snapshots the spectrum stage cannot use still fail —
// for a tag evaluated at its monitored peaks and for a tag with none,
// whose rows are only validated — and count in SpectraFailed without
// reaching the full-spectrum path.
func TestMonitoredPathBadSnapshotsCountAsFailed(t *testing.T) {
	r := newMonitoredRig(t, 0, nil)
	r.round(t, 0)
	r.round(t, 1)
	const online = 2
	var rd, monitored1, monitored2, noPeak string
	for _, reader := range r.sc.Readers {
		pl := r.p.asm.seqs[reader.ID].plan.Load()
		var mons, none []string
		for _, epc := range pl.keys {
			switch {
			case pl.full(online, epc):
			case len(pl.idx[epc]) > 0:
				mons = append(mons, epc)
			default:
				none = append(none, epc)
			}
		}
		if len(mons) >= 2 && len(none) >= 1 {
			rd, monitored1, monitored2, noPeak = reader.ID, mons[0], mons[1], none[0]
			break
		}
	}
	if rd == "" {
		t.Fatal("no table reader has two monitored tags and a no-peak tag besides its health sample")
	}
	m := r.p.cfg.Arrays[rd].Elements
	before, fullBefore := r.p.Stats(), r.full.Load()
	rep := &llrp.ROAccessReport{ReaderID: rd, Seq: 3, Reports: []llrp.TagReport{
		{EPC: []byte(monitored1), Snapshot: [][]complex128{}},
		{EPC: []byte(monitored2), Snapshot: [][]complex128{make([]complex128, m-1), make([]complex128, m-1)}},
		{EPC: []byte(noPeak), Snapshot: [][]complex128{make([]complex128, m), make([]complex128, m+1)}},
	}}
	if err := r.p.Ingest(rep); err != nil {
		t.Fatal(err)
	}
	r.p.Drain()
	r.wait()
	st := r.p.Stats()
	if got := st.SpectraFailed - before.SpectraFailed; got != 3 {
		t.Fatalf("online bad snapshots failed = %d, want 3", got)
	}
	if st.SpectraComputed != before.SpectraComputed {
		t.Fatalf("spectra computed rose from %d to %d on bad snapshots", before.SpectraComputed, st.SpectraComputed)
	}
	if r.full.Load() != fullBefore {
		t.Fatalf("bad monitored snapshots reached the full-spectrum path")
	}
}

// TestRestoredBaselineOnOtherGridRejected: a saved state whose
// baseline spectra scan 181 angles cannot restore into a pipeline that
// scans 361 — its monitored peak indices would read the wrong angles —
// but restores into one that scans 181.
func TestRestoredBaselineOnOtherGridRejected(t *testing.T) {
	arrays, sc := testArrays(t)
	saved := dwatch.New(sc, dwatch.WithGridSize(181), dwatch.WithCalibration(dwatch.CalibWired))
	if err := saved.Calibrate(); err != nil {
		t.Fatal(err)
	}
	if err := saved.CollectBaseline(); err != nil {
		t.Fatal(err)
	}
	var state bytes.Buffer
	if err := saved.SaveState(&state); err != nil {
		t.Fatal(err)
	}
	restored := dwatch.New(sc)
	if err := restored.LoadState(bytes.NewReader(state.Bytes())); err != nil {
		t.Fatal(err)
	}
	dep := Deployment{Arrays: arrays, Grid: sc.Grid}
	_, err := New(dep, WithRestored(restored.Fuser()))
	if err == nil || !strings.Contains(err.Error(), "181 angles") {
		t.Fatalf("New with a 181-bin baseline on the 361-angle grid: err = %v", err)
	}
	p, err := New(dep, WithRestored(restored.Fuser()), WithPMusic(pmusic.Options{Music: music.Options{GridSize: 181}}))
	if err != nil {
		t.Fatalf("New with a 181-bin baseline on a 181-angle grid: %v", err)
	}
	p.Close()
}
