package dwatch

import (
	"errors"
	"math"
	"testing"

	"dwatch/internal/calib"
	"dwatch/internal/channel"
	"dwatch/internal/geom"
	"dwatch/internal/loc"
	"dwatch/internal/sim"
	"dwatch/internal/stats"
)

func buildSystem(t testing.TB, cfg sim.Config, dcfg Config) *System {
	t.Helper()
	sc, err := sim.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := New(sc, WithConfig(dcfg))
	if err := s.Calibrate(); err != nil {
		t.Fatal(err)
	}
	if err := s.CollectBaseline(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPipelineOrderEnforced(t *testing.T) {
	sc, err := sim.Build(sim.HallConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := New(sc)
	if _, err := s.Views(nil); !errors.Is(err, ErrNoBaseline) {
		t.Errorf("Views before baseline: %v", err)
	}
	if err := s.CollectBaseline(); !errors.Is(err, ErrNotCalibrated) {
		t.Errorf("baseline before calibrate: %v", err)
	}
}

func TestWirelessCalibrationAccuracy(t *testing.T) {
	sc, err := sim.Build(sim.HallConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := New(sc)
	if err := s.Calibrate(); err != nil {
		t.Fatal(err)
	}
	for _, r := range sc.Readers {
		est := s.Offsets(r.ID)
		if est == nil {
			t.Fatalf("no offsets for %s", r.ID)
		}
		if e := calib.MeanAbsError(est, r.Offsets); e > 0.15 {
			t.Errorf("%s: calibration error %.3f rad", r.ID, e)
		}
	}
}

// locateMany runs single-target localization at several positions and
// returns the human-rule errors of covered fixes plus the attempt count.
func locateMany(t *testing.T, s *System, positions []geom.Point) (errs []float64, attempts int) {
	t.Helper()
	for _, p := range positions {
		attempts++
		res, err := s.Locate([]channel.Target{channel.HumanTarget(p)})
		if err != nil {
			continue
		}
		errs = append(errs, stats.HumanError(res.Pos.Dist2D(p)))
	}
	return errs, attempts
}

func roomPositions(w, d float64) []geom.Point {
	return []geom.Point{
		geom.Pt(w*0.5, d*0.5, 1.25),
		geom.Pt(w*0.3, d*0.4, 1.25),
		geom.Pt(w*0.65, d*0.6, 1.25),
		geom.Pt(w*0.45, d*0.3, 1.25),
		geom.Pt(w*0.55, d*0.7, 1.25),
		geom.Pt(w*0.35, d*0.55, 1.25),
	}
}

func TestLocateHumanInHall(t *testing.T) {
	// The hall is the paper's hardest room: low multipath means thin
	// coverage (Fig. 16 exists precisely to fix this by adding
	// reflectors). Require that at least half the positions produce a
	// fix and that the median human-rule error is decimetre-level.
	s := buildSystem(t, sim.HallConfig(), Config{})
	errs, attempts := locateMany(t, s, roomPositions(7.2, 10.4))
	if len(errs) < attempts/2 {
		t.Fatalf("covered %d of %d hall positions", len(errs), attempts)
	}
	med, _ := stats.Median(errs)
	if med > 0.5 {
		t.Errorf("hall median error %.2f m, errors %v", med, errs)
	}
}

func TestLocateHumanInLibrary(t *testing.T) {
	s := buildSystem(t, sim.LibraryConfig(), Config{})
	errs, attempts := locateMany(t, s, roomPositions(7, 10))
	if len(errs) < attempts/2 {
		t.Fatalf("covered %d of %d library positions", len(errs), attempts)
	}
	med, _ := stats.Median(errs)
	if med > 0.5 {
		t.Errorf("library median error %.2f m, errors %v", med, errs)
	}
}

func TestLocateNoTargetNotCovered(t *testing.T) {
	s := buildSystem(t, sim.HallConfig(), Config{})
	if _, err := s.Locate(nil); err == nil {
		t.Error("empty scene should not produce a fix")
	}
}

func TestDetectEventsSeeBlocking(t *testing.T) {
	s := buildSystem(t, sim.HallConfig(), Config{})
	// Put the target right between a tag and the bottom array so at
	// least one direct path is blocked.
	tagPos := s.Scenario.Tags.Tags[0].Pos
	arr := s.Scenario.Readers[0].Array
	mid := arr.Center().Lerp(tagPos, 0.5)
	events, err := s.DetectEvents([]channel.Target{channel.HumanTarget(geom.Pt(mid.X, mid.Y, 1.25))})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, ev := range events {
		total += len(ev)
	}
	if total == 0 {
		t.Error("no blocked-path events detected")
	}
}

func TestWiredVsWirelessClose(t *testing.T) {
	// Wireless calibration should cover about as many positions as the
	// wired (ground-truth) calibration and with comparable error.
	positions := roomPositions(7.2, 10.4)
	wired := buildSystem(t, sim.HallConfig(), Config{Calibration: CalibWired})
	we, wa := locateMany(t, wired, positions)
	wireless := buildSystem(t, sim.HallConfig(), Config{Calibration: CalibWireless})
	le, la := locateMany(t, wireless, positions)
	if wa != la {
		t.Fatalf("attempt mismatch %d vs %d", wa, la)
	}
	// Wireless calibration carries a 0.05-0.11 rad multipath-induced
	// residual (the paper's Fig. 9 shows the same effect shrinking with
	// tag count), so allow it to lose a couple of marginal positions.
	if len(le) < len(we)-2 {
		t.Errorf("wireless covered %d positions, wired %d", len(le), len(we))
	}
	if len(we) > 0 && len(le) > 0 {
		wm, _ := stats.Median(we)
		lm, _ := stats.Median(le)
		if lm > wm+0.4 {
			t.Errorf("wireless median %.2f m ≫ wired %.2f m", lm, wm)
		}
	}
}

func TestNoCalibrationDegrades(t *testing.T) {
	// Without calibration the offsets corrupt all AoA spectra: the
	// system should cover fewer positions and/or have larger errors.
	positions := roomPositions(7.2, 10.4)
	good := buildSystem(t, sim.HallConfig(), Config{})
	ge, _ := locateMany(t, good, positions)
	bad := buildSystem(t, sim.HallConfig(), Config{Calibration: CalibNone})
	be, _ := locateMany(t, bad, positions)

	gm := math.Inf(1)
	if len(ge) > 0 {
		gm, _ = stats.Median(ge)
	}
	bm := math.Inf(1)
	if len(be) > 0 {
		bm, _ = stats.Median(be)
	}
	goodScore := float64(len(ge)) - gm
	badScore := float64(len(be)) - bm
	if math.IsInf(bm, 1) {
		return // uncalibrated produced no fixes at all: clearly degraded
	}
	if badScore > goodScore {
		t.Errorf("uncalibrated (cov %d, med %.2f) beat calibrated (cov %d, med %.2f)",
			len(be), bm, len(ge), gm)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Snapshots != 10 || c.GridSize != 361 || c.CalibTags != 6 {
		t.Errorf("defaults = %+v", c)
	}
	if c.MinDrop != 0.35 || c.PeakRatio != 0.05 {
		t.Errorf("thresholds = %+v", c)
	}
}

// Failure injection: RF-chain drift after calibration degrades the
// system; recalibrating plus a fresh baseline restores it. This is the
// operational boundary of the paper's "one-time per power cycle"
// calibration claim.
func TestDriftDegradesAndRecalibrationRecovers(t *testing.T) {
	s := buildSystem(t, sim.HallConfig(), Config{})
	target := geom.Pt(4.0, 3.0, 1.25)
	tgt := []channel.Target{channel.HumanTarget(target)}

	before, err := s.LocateRobust(tgt, 3)
	if err != nil {
		t.Fatalf("healthy system failed: %v", err)
	}
	if d := before.Pos.Dist2D(target); d > 0.4 {
		t.Fatalf("healthy fix off by %.2f m", d)
	}

	// Heavy drift: calibration and baseline now describe a different
	// radio.
	for _, r := range s.Scenario.Readers {
		r.Drift(1.2)
	}
	degraded := true
	if res, err := s.Locate(tgt); err == nil {
		if res.Pos.Dist2D(target) < 0.4 {
			degraded = false
		}
	}
	if !degraded {
		t.Error("heavy drift did not degrade localization")
	}

	// Recover: recalibrate and re-baseline.
	if err := s.Calibrate(); err != nil {
		t.Fatal(err)
	}
	if err := s.CollectBaseline(); err != nil {
		t.Fatal(err)
	}
	after, err := s.LocateRobust(tgt, 3)
	if err != nil {
		t.Fatalf("recalibrated system failed: %v", err)
	}
	if d := after.Pos.Dist2D(target); d > 0.4 {
		t.Errorf("post-recalibration fix off by %.2f m", d)
	}
}

// Failure injection: a reader missing from the online round (power
// loss, link down) must not break localization outright — the remaining
// readers still fuse, with coverage loss as the only cost.
func TestReaderLossGracefulDegradation(t *testing.T) {
	s := buildSystem(t, sim.HallConfig(), Config{})
	target := geom.Pt(4.0, 3.0, 1.25)
	tgt := []channel.Target{channel.HumanTarget(target)}
	views, err := s.Views(tgt)
	if err != nil {
		t.Fatal(err)
	}
	if len(views) < 3 {
		t.Skipf("only %d views at this position", len(views))
	}
	// Drop one reader's view and localize with the rest.
	res, err := loc.Localize(views[1:], s.Scenario.Grid, loc.Options{})
	if err != nil {
		t.Skipf("position not covered without reader 1: %v", err)
	}
	if d := res.Pos.Dist2D(target); d > 1.0 {
		t.Errorf("degraded fix off by %.2f m", d)
	}
}

func TestLocateMultiBottlesOnTable(t *testing.T) {
	s := buildSystem(t, sim.TableConfig(), Config{})
	const tableZ = 0.75
	positions := []geom.Point{
		geom.Pt(0.35, 0.45, tableZ),
		geom.Pt(1.0, 1.1, tableZ),
		geom.Pt(1.65, 1.55, tableZ),
	}
	var targets []channel.Target
	for _, p := range positions {
		targets = append(targets, channel.BottleTarget(p, tableZ))
	}
	fixes, err := s.LocateMulti(targets, 3, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(fixes) < 2 {
		t.Fatalf("resolved %d of 3 bottles", len(fixes))
	}
	matched := 0
	for _, f := range fixes {
		for _, p := range positions {
			if f.Pos.Dist2D(p) < 0.4 {
				matched++
				break
			}
		}
	}
	if matched < 2 {
		t.Errorf("only %d fixes near true bottles", matched)
	}
}

func TestRunInventoryGatingStillLocalizes(t *testing.T) {
	// With Gen2 inventory gating on, acquisition order and per-cycle
	// reads vary, but the pipeline must still work end to end.
	s := buildSystem(t, sim.HallConfig(), Config{RunInventory: true})
	target := geom.Pt(4.0, 3.0, 1.25)
	res, err := s.LocateRobust([]channel.Target{channel.HumanTarget(target)}, 3)
	if err != nil {
		t.Skipf("position not covered under inventory gating: %v", err)
	}
	if d := res.Pos.Dist2D(target); d > 0.5 {
		t.Errorf("fix error %.2f m under inventory gating", d)
	}
}
