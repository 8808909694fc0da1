package dwatch

import (
	"math"
	"testing"

	"dwatch/internal/geom"
	"dwatch/internal/pmusic"
	"dwatch/internal/rf"
)

func fuserArray(t *testing.T) *rf.Array {
	t.Helper()
	a, err := rf.NewArray(geom.Pt2(0, 0), geom.Pt2(1, 0), 8)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// synthSpectrum fabricates a P-MUSIC spectrum with Gaussian peaks at
// the given angles/powers on the standard 361-point grid, with beam
// power matching the P-MUSIC power.
func synthSpectrum(angles []float64, powers []float64) *pmusic.Spectrum {
	grid := rf.AngleGrid(361)
	power := make([]float64, len(grid))
	beam := make([]float64, len(grid))
	for i, th := range grid {
		for k := range angles {
			d := th - angles[k]
			v := powers[k] * math.Exp(-d*d/(2*0.03*0.03))
			power[i] += v
			beam[i] += v
		}
		beam[i] += 1e-9 // strictly positive floor
	}
	return &pmusic.Spectrum{Angles: grid, Power: power, Beam: beam}
}

func TestFuserBaselineStability(t *testing.T) {
	arr := fuserArray(t)
	f := NewFuser(map[string]*rf.Array{"r1": arr}, Config{})
	epc := []byte{1, 2}

	// Round 1: peaks at 60° (stable) and 120° (will vanish).
	b1 := synthSpectrum([]float64{rf.Rad(60), rf.Rad(120)}, []float64{1, 0.5})
	f.AddBaseline("r1", epc, b1)
	if peaks := f.MonitoredPeaks("r1", epc); peaks != nil {
		t.Fatalf("monitored before confirmation round: %v", peaks)
	}

	// Round 2: the 120° peak is gone.
	b2 := synthSpectrum([]float64{rf.Rad(60)}, []float64{1})
	f.AddBaseline("r1", epc, b2)
	f.FinishBaseline("r1")

	peaks := f.MonitoredPeaks("r1", epc)
	if len(peaks) != 1 {
		t.Fatalf("monitored = %d peaks, want 1 (unstable peak filtered)", len(peaks))
	}
	if math.Abs(peaks[0].Angle-rf.Rad(60)) > rf.Rad(1) {
		t.Errorf("monitored angle = %.1f°", rf.Deg(peaks[0].Angle))
	}
}

func TestFuserEndfireBandExcluded(t *testing.T) {
	arr := fuserArray(t)
	f := NewFuser(map[string]*rf.Array{"r1": arr}, Config{})
	epc := []byte{1}
	// Peaks at 5° (endfire zone, default band 12°) and 90°.
	sp := synthSpectrum([]float64{rf.Rad(5), rf.Rad(90)}, []float64{1, 1})
	f.AddBaseline("r1", epc, sp)
	f.AddBaseline("r1", epc, sp)
	f.FinishBaseline("r1")
	for _, p := range f.MonitoredPeaks("r1", epc) {
		if p.Angle < rf.Rad(12) || p.Angle > math.Pi-rf.Rad(12) {
			t.Errorf("endfire peak at %.1f° monitored", rf.Deg(p.Angle))
		}
	}
}

func TestFuserAbsoluteFloor(t *testing.T) {
	arr := fuserArray(t)
	f := NewFuser(map[string]*rf.Array{"r1": arr}, Config{})
	strong := []byte{1}
	weak := []byte{2}
	// Strong tag at power 1; weak tag at power 1e-4 (< default 1% floor).
	s1 := synthSpectrum([]float64{rf.Rad(70)}, []float64{1})
	s2 := synthSpectrum([]float64{rf.Rad(110)}, []float64{1e-4})
	f.AddBaseline("r1", strong, s1)
	f.AddBaseline("r1", weak, s2)
	f.AddBaseline("r1", strong, s1)
	f.AddBaseline("r1", weak, s2)
	f.FinishBaseline("r1")
	if got := len(f.MonitoredPeaks("r1", strong)); got != 1 {
		t.Errorf("strong tag monitored = %d", got)
	}
	if got := len(f.MonitoredPeaks("r1", weak)); got != 0 {
		t.Errorf("weak tag monitored = %d, want 0 (below −20 dB floor)", got)
	}
}

func TestFuserBuildViewDrop(t *testing.T) {
	arr := fuserArray(t)
	f := NewFuser(map[string]*rf.Array{"r1": arr}, Config{})
	epc := []byte{1}
	base := synthSpectrum([]float64{rf.Rad(60), rf.Rad(120)}, []float64{1, 0.8})
	f.AddBaseline("r1", epc, base)
	f.AddBaseline("r1", epc, base)
	f.FinishBaseline("r1")

	// Online: the 120° path lost 90% of its power.
	online := synthSpectrum([]float64{rf.Rad(60), rf.Rad(120)}, []float64{1, 0.08})
	v := f.BuildView("r1", f.Evidence("r1", map[string]*pmusic.Spectrum{string(epc): online}))
	if v == nil {
		t.Fatal("no view")
	}
	if d := v.DropAt(rf.Rad(120)); d < 0.5 {
		t.Errorf("drop at blocked angle = %.2f", d)
	}
	if d := v.DropAt(rf.Rad(60)); d > 0.1 {
		t.Errorf("drop at unblocked angle = %.2f", d)
	}
	if d := v.DropAt(rf.Rad(90)); d > 0.1 {
		t.Errorf("drop at empty angle = %.2f", d)
	}
}

func TestFuserBuildViewNilCases(t *testing.T) {
	arr := fuserArray(t)
	f := NewFuser(map[string]*rf.Array{"r1": arr}, Config{})
	if v := f.BuildView("r1", nil); v != nil {
		t.Error("view without baseline should be nil")
	}
	if v := f.BuildView("unknown", nil); v != nil {
		t.Error("view for unknown reader should be nil")
	}
	epc := []byte{1}
	sp := synthSpectrum([]float64{rf.Rad(60)}, []float64{1})
	f.AddBaseline("r1", epc, sp)
	f.AddBaseline("r1", epc, sp)
	f.FinishBaseline("r1")
	// Online missing the tag entirely: no evidence, nil view.
	if v := f.BuildView("r1", map[string][]float64{}); v != nil {
		t.Error("view without online overlap should be nil")
	}
}

func TestFuserHasBaselineAndSpectrum(t *testing.T) {
	arr := fuserArray(t)
	f := NewFuser(map[string]*rf.Array{"r1": arr}, Config{})
	if f.HasBaseline() {
		t.Error("fresh fuser reports baseline")
	}
	epc := []byte{9}
	sp := synthSpectrum([]float64{1.0}, []float64{1})
	f.AddBaseline("r1", epc, sp)
	if !f.HasBaseline() {
		t.Error("baseline not reported")
	}
	if f.BaselineSpectrum("r1", epc) != sp {
		t.Error("BaselineSpectrum mismatch")
	}
	if f.BaselineSpectrum("r1", []byte{8}) != nil {
		t.Error("unknown tag spectrum not nil")
	}
	if f.BaselineSpectrum("r2", epc) != nil {
		t.Error("unknown reader spectrum not nil")
	}
	if f.MonitoredPeaks("r2", epc) != nil {
		t.Error("unknown reader peaks not nil")
	}
}

func TestFuserWeightingFavorsStrongPaths(t *testing.T) {
	arr := fuserArray(t)
	f := NewFuser(map[string]*rf.Array{"r1": arr}, Config{MinAbsPeakFrac: 1e-9})
	epc := []byte{1}
	// One strong and one weak monitored path for the same tag.
	base := synthSpectrum([]float64{rf.Rad(60), rf.Rad(120)}, []float64{1, 0.05})
	f.AddBaseline("r1", epc, base)
	f.AddBaseline("r1", epc, base)
	f.FinishBaseline("r1")
	// Both drop fully.
	online := synthSpectrum([]float64{rf.Rad(60), rf.Rad(120)}, []float64{1e-6, 1e-6})
	v := f.BuildView("r1", f.Evidence("r1", map[string]*pmusic.Spectrum{string(epc): online}))
	if v == nil {
		t.Fatal("no view")
	}
	dStrong := v.DropAt(rf.Rad(60))
	dWeak := v.DropAt(rf.Rad(120))
	if dWeak >= dStrong {
		t.Errorf("weak-path evidence (%.2f) not below strong-path (%.2f)", dWeak, dStrong)
	}
}

// Regression: monitored peaks must carry indices valid for the online
// spectra grids (shared 361-point convention).
func TestFuserPeakIndicesValid(t *testing.T) {
	arr := fuserArray(t)
	f := NewFuser(map[string]*rf.Array{"r1": arr}, Config{})
	epc := []byte{1}
	sp := synthSpectrum([]float64{rf.Rad(45), rf.Rad(135)}, []float64{1, 1})
	f.AddBaseline("r1", epc, sp)
	f.AddBaseline("r1", epc, sp)
	f.FinishBaseline("r1")
	for _, p := range f.MonitoredPeaks("r1", epc) {
		if p.Index < 0 || p.Index >= len(sp.Angles) {
			t.Fatalf("peak index %d out of grid", p.Index)
		}
		// Angle may be sub-bin refined, but must stay within half a
		// grid step of its index.
		step := sp.Angles[1] - sp.Angles[0]
		if math.Abs(sp.Angles[p.Index]-p.Angle) > step/2+1e-9 {
			t.Fatalf("peak angle %.4f too far from index angle %.4f", p.Angle, sp.Angles[p.Index])
		}
	}
}

// TestFuserEvidenceIsBeamAtMonitoredPeaks: Evidence reads exactly
// Beam[p.Index] per monitored peak in MonitoredPeaks order, skips tags
// without monitored peaks, and BuildView ignores evidence that does not
// cover a tag's monitored set.
func TestFuserEvidenceIsBeamAtMonitoredPeaks(t *testing.T) {
	arr := fuserArray(t)
	f := NewFuser(map[string]*rf.Array{"r1": arr}, Config{})
	two, none := []byte{1}, []byte{2}
	base := synthSpectrum([]float64{rf.Rad(60), rf.Rad(120)}, []float64{1, 0.8})
	endfire := synthSpectrum([]float64{rf.Rad(3)}, []float64{1})
	for round := 0; round < 2; round++ {
		f.AddBaseline("r1", two, base)
		f.AddBaseline("r1", none, endfire)
	}
	f.FinishBaseline("r1")
	peaks := f.MonitoredPeaks("r1", two)
	if len(peaks) != 2 || len(f.MonitoredPeaks("r1", none)) != 0 {
		t.Fatalf("monitored = %d and %d peaks, want 2 and 0", len(peaks), len(f.MonitoredPeaks("r1", none)))
	}
	online := synthSpectrum([]float64{rf.Rad(60), rf.Rad(120)}, []float64{1, 0.08})
	ev := f.Evidence("r1", map[string]*pmusic.Spectrum{string(two): online, string(none): online})
	if _, ok := ev[string(none)]; ok || len(ev) != 1 {
		t.Fatalf("evidence keys = %v, want only the monitored tag", ev)
	}
	for i, p := range peaks {
		if got := ev[string(two)][i]; got != online.Beam[p.Index] {
			t.Fatalf("evidence[%d] = %v, want Beam[%d] = %v", i, got, p.Index, online.Beam[p.Index])
		}
	}
	if v := f.BuildView("r1", map[string][]float64{string(two): ev[string(two)][:1]}); v != nil {
		t.Fatal("BuildView used evidence shorter than the monitored set")
	}
	if got := f.Tags("r1"); len(got) != 2 || got[0] != string(two) || got[1] != string(none) {
		t.Fatalf("Tags = %q, want sorted baseline keys", got)
	}
}

// TestFuserFinishBaselinePerReader: confirming one reader applies only
// that reader's floor; another reader's monitored set is untouched even
// when its peaks sit below the confirmed reader's floor.
func TestFuserFinishBaselinePerReader(t *testing.T) {
	arr := fuserArray(t)
	f := NewFuser(map[string]*rf.Array{"r1": arr, "r2": arr}, Config{})
	strong, weak := []byte{1}, []byte{2}
	s1 := synthSpectrum([]float64{rf.Rad(70)}, []float64{1})
	s2 := synthSpectrum([]float64{rf.Rad(110)}, []float64{1e-4})
	for round := 0; round < 2; round++ {
		f.AddBaseline("r1", strong, s1)
		f.AddBaseline("r1", weak, s2)
		f.AddBaseline("r2", weak, s2)
	}
	f.FinishBaseline("r2")
	f.FinishBaseline("r1")
	if got := len(f.MonitoredPeaks("r1", weak)); got != 0 {
		t.Errorf("r1 weak tag monitored = %d, want 0 (below r1's floor)", got)
	}
	if got := len(f.MonitoredPeaks("r2", weak)); got != 1 {
		t.Errorf("r2 weak tag monitored = %d, want 1 (r2's own floor)", got)
	}
}
