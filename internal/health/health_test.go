package health

import (
	"math"
	"sync"
	"testing"
	"time"

	"dwatch/internal/obs"
	"dwatch/internal/pmusic"
)

var h0 = time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)

// spectrum builds a synthetic P-MUSIC spectrum with triangular peaks
// of the given (angleDeg, power) pairs on a 1-degree grid.
func spectrum(peaks ...[2]float64) *pmusic.Spectrum {
	n := 181
	sp := &pmusic.Spectrum{Angles: make([]float64, n), Power: make([]float64, n)}
	for i := 0; i < n; i++ {
		sp.Angles[i] = float64(i-90) * math.Pi / 180
	}
	for _, pk := range peaks {
		idx := int(pk[0]) + 90
		if idx < 1 || idx > n-2 {
			continue
		}
		sp.Power[idx] = pk[1]
		if sp.Power[idx-1] < pk[1]/2 {
			sp.Power[idx-1] = pk[1] / 2
		}
		if sp.Power[idx+1] < pk[1]/2 {
			sp.Power[idx+1] = pk[1] / 2
		}
	}
	return sp
}

// TestObserveTrackedTagAllocs: a bare read (nil spectrum) of a tag the
// monitor already tracks allocates nothing — its hex label and metric
// children were made when the tag was first tracked.
func TestObserveTrackedTagAllocs(t *testing.T) {
	m := New(obs.NewRegistry(), Options{})
	epc := "\x30\x08\x33\xb2\xdd\xd9\x01\x40\x00\x00\x00\x01"
	now := h0
	m.Observe("r1", epc, nil, now)
	allocs := testing.AllocsPerRun(100, func() {
		now = now.Add(100 * time.Millisecond)
		m.Observe("r1", epc, nil, now)
	})
	if allocs != 0 {
		t.Fatalf("Observe of a tracked tag: %v allocs, want 0", allocs)
	}
	if got := m.Snapshot().Readers[0].Tags[0].EPC; got != "300833b2ddd9014000000001" {
		t.Fatalf("tag label %q, want the EPC's hex", got)
	}
}

func TestReadRateEWMA(t *testing.T) {
	m := New(nil, Options{})
	// 10 reads at exactly 10 Hz.
	for i := 0; i < 10; i++ {
		m.Observe("r1", "\x01\x02", nil, h0.Add(time.Duration(i)*100*time.Millisecond))
	}
	s := m.Snapshot()
	if len(s.Readers) != 1 || len(s.Readers[0].Tags) != 1 {
		t.Fatalf("snapshot shape: %+v", s)
	}
	tag := s.Readers[0].Tags[0]
	if tag.EPC != "0102" {
		t.Fatalf("epc = %q, want hex 0102", tag.EPC)
	}
	if tag.Reads != 10 {
		t.Fatalf("reads = %d", tag.Reads)
	}
	if math.Abs(tag.RateHz-10) > 0.01 {
		t.Fatalf("rate = %.3f Hz, want ~10", tag.RateHz)
	}
}

func TestPathBaselineAndDrift(t *testing.T) {
	reg := obs.NewRegistry()
	m := New(reg, Options{})
	// 30 observations of two stable paths at -20 and +40 degrees.
	for i := 0; i < 30; i++ {
		m.Observe("r1", "e", spectrum([2]float64{-20, 1.0}, [2]float64{40, 0.6}), h0.Add(time.Duration(i)*100*time.Millisecond))
	}
	s := m.Snapshot()
	paths := s.Readers[0].Tags[0].Paths
	if len(paths) != 2 {
		t.Fatalf("tracked %d paths, want 2", len(paths))
	}
	for _, p := range paths {
		if p.Drift {
			t.Fatalf("stable path flagged as drifting: %+v", p)
		}
		if math.Abs(p.Power-p.Baseline)/p.Baseline > 0.05 {
			t.Fatalf("converged path power %f vs baseline %f", p.Power, p.Baseline)
		}
	}
	if s.Readers[0].Drifting != 0 {
		t.Fatal("drifting count nonzero on stable channel")
	}

	// The -20 degree path collapses to 10% power: fast EWMA dives,
	// slow baseline holds, drift flag raises, anomaly counts once on
	// the rising edge.
	for i := 0; i < 10; i++ {
		m.Observe("r1", "e", spectrum([2]float64{-20, 0.1}, [2]float64{40, 0.6}), h0.Add(3*time.Second+time.Duration(i)*100*time.Millisecond))
	}
	s = m.Snapshot()
	var dropped *PathHealth
	for i := range s.Readers[0].Tags[0].Paths {
		p := &s.Readers[0].Tags[0].Paths[i]
		if math.Abs(p.AngleDeg-(-20)) < 3 {
			dropped = p
		}
	}
	if dropped == nil {
		t.Fatal("lost the -20 degree path")
	}
	if !dropped.Drift {
		t.Fatalf("collapsed path not flagged: %+v", dropped)
	}
	if s.Readers[0].Drifting != 1 {
		t.Fatalf("drifting = %d, want 1", s.Readers[0].Drifting)
	}
	snap := reg.Snapshot()
	if got := snap[`dwatch_rf_anomalies_total{reader="r1",kind="power_drift"}`]; got != 1 {
		t.Fatalf("power_drift anomalies = %v, want 1 (rising edge only)", got)
	}
	if got := snap[`dwatch_rf_reads_total{reader="r1",epc="65"}`]; got != 40 {
		t.Fatalf("reads metric = %v, want 40", got)
	}
}

func TestCalibrationResidualTracksAngleDeviation(t *testing.T) {
	m := New(nil, Options{})
	// Establish paths, then observe with a consistent 2-degree offset:
	// the residual EWMA should settle near 2 degrees.
	for i := 0; i < 10; i++ {
		m.Observe("r1", "e", spectrum([2]float64{0, 1.0}), h0.Add(time.Duration(i)*time.Second))
	}
	for i := 0; i < 40; i++ {
		m.Observe("r1", "e", spectrum([2]float64{2, 1.0}), h0.Add(time.Duration(10+i)*time.Second))
	}
	s := m.Snapshot()
	resDeg := s.Readers[0].CalibrationResidual * 180 / math.Pi
	if resDeg < 0.5 || resDeg > 2.5 {
		t.Fatalf("calibration residual = %.2f deg, want near 2", resDeg)
	}
}

func TestMaxPathsEvictsStalest(t *testing.T) {
	m := New(obs.NewRegistry(), Options{MaxPaths: 2})
	m.Observe("r1", "e", spectrum([2]float64{-40, 1}, [2]float64{40, 1}), h0)
	// A third path arrives much later; the path at -40 was refreshed
	// recently, +40 was not.
	m.Observe("r1", "e", spectrum([2]float64{-40, 1}), h0.Add(time.Second))
	m.Observe("r1", "e", spectrum([2]float64{0, 1}), h0.Add(2*time.Second))
	s := m.Snapshot()
	paths := s.Readers[0].Tags[0].Paths
	if len(paths) != 2 {
		t.Fatalf("tracked %d paths, want capped 2", len(paths))
	}
	for _, p := range paths {
		if math.Abs(p.AngleDeg-40) < 3 {
			t.Fatalf("stalest path (+40) survived eviction: %+v", paths)
		}
	}
}

func TestNilMonitorAndNilSpectrum(t *testing.T) {
	var m *Monitor
	m.Observe("r1", "e", nil, h0) // must not panic
	if s := m.Snapshot(); len(s.Readers) != 0 {
		t.Fatal("nil monitor has state")
	}
	m2 := New(nil, Options{})
	m2.Observe("r1", "e", nil, h0) // read counted, no paths
	s := m2.Snapshot()
	if s.Readers[0].Tags[0].Reads != 1 || len(s.Readers[0].Tags[0].Paths) != 0 {
		t.Fatalf("nil-spectrum observe: %+v", s.Readers[0].Tags[0])
	}
}

// TestConcurrentObserveAndSnapshot is the race proof for the
// assembler-writes / HTTP-reads sharing pattern.
func TestConcurrentObserveAndSnapshot(t *testing.T) {
	m := New(obs.NewRegistry(), Options{})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			m.Observe("r1", "e", spectrum([2]float64{float64(i%40 - 20), 1}), h0.Add(time.Duration(i)*time.Millisecond))
		}
	}()
	for i := 0; i < 50; i++ {
		m.Snapshot()
	}
	close(stop)
	wg.Wait()
}
