package loc

import (
	"errors"
	"math"
	"strings"
	"testing"

	"dwatch/internal/geom"
	"dwatch/internal/rf"
)

func mkArray(t testing.TB, origin geom.Point, axis geom.Point) *rf.Array {
	t.Helper()
	a, err := rf.NewArray(origin, axis, 8)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// bumpView builds a View whose drop spectrum has Gaussian bumps (σ in
// radians) at the given angles.
func bumpView(arr *rf.Array, angles []float64, amps []float64, sigma float64) *View {
	grid := rf.AngleGrid(361)
	drop := make([]float64, len(grid))
	for i, th := range grid {
		for k, a := range angles {
			d := th - a
			drop[i] += amps[k] * math.Exp(-d*d/(2*sigma*sigma))
		}
	}
	return &View{Array: arr, Angles: grid, Drop: drop}
}

// viewsToward builds one view per array with a bump exactly at the angle
// to target.
func viewsToward(t testing.TB, arrays []*rf.Array, target geom.Point) []*View {
	t.Helper()
	var views []*View
	for _, a := range arrays {
		views = append(views, bumpView(a, []float64{a.AngleTo(target)}, []float64{1}, rf.Rad(3)))
	}
	return views
}

func roomGrid() Grid {
	return Grid{XMin: 0, XMax: 8, YMin: 0, YMax: 8, Cell: 0.05, Z: 1.25}
}

func TestLocalizeTwoReaders(t *testing.T) {
	a1 := mkArray(t, geom.Pt(2, 0, 1.25), geom.Pt2(1, 0))
	a2 := mkArray(t, geom.Pt(0, 2, 1.25), geom.Pt2(0, 1))
	target := geom.Pt(4, 5, 1.25)
	views := viewsToward(t, []*rf.Array{a1, a2}, target)
	res, err := Localize(views, roomGrid(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Pos.Dist2D(target); d > 0.15 {
		t.Errorf("fix %v is %.3f m from target %v", res.Pos, d, target)
	}
	if res.Confidence <= 0 || res.Confidence > 1.01 {
		t.Errorf("confidence = %v", res.Confidence)
	}
}

func TestLocalizeFourReaders(t *testing.T) {
	arrays := []*rf.Array{
		mkArray(t, geom.Pt(2, 0, 1.25), geom.Pt2(1, 0)),
		mkArray(t, geom.Pt(0, 2, 1.25), geom.Pt2(0, 1)),
		mkArray(t, geom.Pt(2, 8, 1.25), geom.Pt2(1, 0)),
		mkArray(t, geom.Pt(8, 2, 1.25), geom.Pt2(0, 1)),
	}
	target := geom.Pt(3.3, 4.7, 1.25)
	views := viewsToward(t, arrays, target)
	res, err := Localize(views, roomGrid(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Pos.Dist2D(target); d > 0.12 {
		t.Errorf("fix error %.3f m", d)
	}
}

func TestLocalizeRejectsWrongAngle(t *testing.T) {
	// Reader 1 sees two blocked paths: the true angle plus a "wrong"
	// reflection angle (Fig. 1(c)). Reader 2 sees only the true angle.
	// The likelihood product must land on the true target.
	a1 := mkArray(t, geom.Pt(2, 0, 1.25), geom.Pt2(1, 0))
	a2 := mkArray(t, geom.Pt(0, 2, 1.25), geom.Pt2(0, 1))
	target := geom.Pt(5, 4, 1.25)
	wrongAngle := a1.AngleTo(target) + rf.Rad(40)
	v1 := bumpView(a1, []float64{a1.AngleTo(target), wrongAngle}, []float64{1, 1}, rf.Rad(3))
	v2 := bumpView(a2, []float64{a2.AngleTo(target)}, []float64{1}, rf.Rad(3))
	res, err := Localize([]*View{v1, v2}, roomGrid(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Pos.Dist2D(target); d > 0.2 {
		t.Errorf("wrong angle won: fix %v, %.2f m from target", res.Pos, d)
	}
}

func TestLocalizeNotCovered(t *testing.T) {
	a1 := mkArray(t, geom.Pt(2, 0, 1.25), geom.Pt2(1, 0))
	a2 := mkArray(t, geom.Pt(0, 2, 1.25), geom.Pt2(0, 1))
	// No drops anywhere.
	g := rf.AngleGrid(361)
	v1 := &View{Array: a1, Angles: g, Drop: make([]float64, len(g))}
	v2 := &View{Array: a2, Angles: g, Drop: make([]float64, len(g))}
	if _, err := Localize([]*View{v1, v2}, roomGrid(), Options{}); !errors.Is(err, ErrNotCovered) {
		t.Errorf("err = %v, want ErrNotCovered", err)
	}
}

func TestLocalizeValidation(t *testing.T) {
	if _, err := Localize(nil, roomGrid(), Options{}); !errors.Is(err, ErrNoViews) {
		t.Errorf("err = %v", err)
	}
	a1 := mkArray(t, geom.Pt(2, 0, 1.25), geom.Pt2(1, 0))
	v := bumpView(a1, []float64{1}, []float64{1}, 0.05)
	if _, err := Localize([]*View{v}, Grid{XMin: 1, XMax: 0, YMin: 0, YMax: 1, Cell: 0.1}, Options{}); err == nil {
		t.Error("empty grid must error")
	}
	if _, err := Localize([]*View{v}, Grid{XMin: 0, XMax: 1, YMin: 0, YMax: 1, Cell: 0}, Options{}); err == nil {
		t.Error("zero cell must error")
	}
}

func TestLocalizeMultiTwoTargets(t *testing.T) {
	a1 := mkArray(t, geom.Pt(2, 0, 1.25), geom.Pt2(1, 0))
	a2 := mkArray(t, geom.Pt(0, 2, 1.25), geom.Pt2(0, 1))
	t1 := geom.Pt(2.5, 5.5, 1.25)
	t2 := geom.Pt(6, 3, 1.25)
	mk := func(a *rf.Array) *View {
		return bumpView(a, []float64{a.AngleTo(t1), a.AngleTo(t2)}, []float64{1, 0.9}, rf.Rad(3))
	}
	res, err := LocalizeMulti([]*View{mk(a1), mk(a2)}, roomGrid(), 3, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) < 2 {
		t.Fatalf("found %d targets, want ≥2", len(res))
	}
	found1, found2 := false, false
	for _, r := range res {
		if r.Pos.Dist2D(t1) < 0.3 {
			found1 = true
		}
		if r.Pos.Dist2D(t2) < 0.3 {
			found2 = true
		}
	}
	if !found1 || !found2 {
		positions := make([]geom.Point, len(res))
		for i, r := range res {
			positions[i] = r.Pos
		}
		t.Errorf("targets not both found: %v", positions)
	}
}

func TestLocalizeMultiRespectsLimits(t *testing.T) {
	a1 := mkArray(t, geom.Pt(2, 0, 1.25), geom.Pt2(1, 0))
	a2 := mkArray(t, geom.Pt(0, 2, 1.25), geom.Pt2(0, 1))
	target := geom.Pt(4, 4, 1.25)
	views := viewsToward(t, []*rf.Array{a1, a2}, target)
	res, err := LocalizeMulti(views, roomGrid(), 5, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Errorf("single target produced %d fixes", len(res))
	}
	if got, err := LocalizeMulti(views, roomGrid(), 0, 0.5, Options{}); err != nil || got != nil {
		t.Errorf("maxTargets=0: %v, %v", got, err)
	}
	if _, err := LocalizeMulti(nil, roomGrid(), 2, 0.5, Options{}); !errors.Is(err, ErrNoViews) {
		t.Errorf("no views: %v", err)
	}
}

func TestViewDropAtAndNormalize(t *testing.T) {
	g := rf.AngleGrid(181)
	drop := make([]float64, 181)
	drop[90] = 4 // at π/2
	a := mkArray(t, geom.Pt2(0, 0), geom.Pt2(1, 0))
	v := &View{Array: a, Angles: g, Drop: drop}
	if got := v.DropAt(math.Pi / 2); got != 4 {
		t.Errorf("DropAt = %v", got)
	}
	if got := v.DropAt(-1); got != drop[0] {
		t.Errorf("clamp low = %v", got)
	}
	if got := v.DropAt(10); got != drop[180] {
		t.Errorf("clamp high = %v", got)
	}
	v.Normalize()
	if v.Drop[90] != 1 {
		t.Errorf("normalized peak = %v", v.Drop[90])
	}
	empty := &View{Array: a}
	if empty.DropAt(1) != 0 {
		t.Error("empty view DropAt != 0")
	}
	empty.Normalize() // must not panic
}

func TestTriangulateBroadside(t *testing.T) {
	a1 := mkArray(t, geom.Pt(2, 0, 0), geom.Pt2(1, 0))
	a2 := mkArray(t, geom.Pt(0, 2, 0), geom.Pt2(0, 1))
	target := geom.Pt2(4, 5)
	pts := Triangulate(
		AngleObservation{Array: a1, Angle: a1.AngleTo(target)},
		AngleObservation{Array: a2, Angle: a2.AngleTo(target)},
		roomGrid(),
	)
	if len(pts) == 0 {
		t.Fatal("no intersections")
	}
	found := false
	for _, p := range pts {
		if p.Dist2D(target) < 0.05 {
			found = true
		}
	}
	if !found {
		t.Errorf("no intersection near target: %v", pts)
	}
}

func TestTriangulateParallelRays(t *testing.T) {
	a1 := mkArray(t, geom.Pt(0, 0, 0), geom.Pt2(1, 0))
	a2 := mkArray(t, geom.Pt(3, 0, 0), geom.Pt2(1, 0))
	// Both looking broadside (π/2): rays parallel, no intersection.
	pts := Triangulate(
		AngleObservation{Array: a1, Angle: math.Pi / 2},
		AngleObservation{Array: a2, Angle: math.Pi / 2},
		roomGrid(),
	)
	if len(pts) != 0 {
		t.Errorf("parallel rays intersected: %v", pts)
	}
}

func TestTrackerSmoothing(t *testing.T) {
	tr := &Tracker{}
	p := tr.Update(geom.Pt2(1, 1), true)
	if p != geom.Pt2(1, 1) {
		t.Errorf("first fix = %v", p)
	}
	if !tr.Initialized() {
		t.Error("not initialized after first fix")
	}
	// Steady motion along x at 1 m/s, 0.1 s steps.
	var last geom.Point
	for i := 1; i <= 10; i++ {
		last = tr.Update(geom.Pt2(1+0.1*float64(i), 1), true)
	}
	if math.Abs(last.Y-1) > 1e-9 {
		t.Errorf("drifted in y: %v", last)
	}
	if last.X < 1.5 || last.X > 2.05 {
		t.Errorf("x estimate = %v, want near 2", last.X)
	}
}

func TestTrackerSpeedGate(t *testing.T) {
	tr := &Tracker{}
	tr.Update(geom.Pt2(1, 1), true)
	// A 5 m jump in 0.1 s (50 m/s) must be rejected.
	p := tr.Update(geom.Pt2(6, 1), true)
	if p.Dist2D(geom.Pt2(1, 1)) > 0.5 {
		t.Errorf("outlier accepted: %v", p)
	}
}

func TestTrackerDeadzoneCoast(t *testing.T) {
	tr := &Tracker{}
	tr.Update(geom.Pt2(0, 0), true)
	for i := 1; i <= 5; i++ {
		tr.Update(geom.Pt2(0.1*float64(i), 0), true)
	}
	before := tr.Position()
	// Deadzone for 3 snapshots: the tracker must coast forward, not stall.
	var coasted geom.Point
	for i := 0; i < 3; i++ {
		coasted = tr.Update(geom.Point{}, false)
	}
	if coasted.X <= before.X {
		t.Errorf("no coasting: %v -> %v", before, coasted)
	}
	// And not explode.
	if coasted.X > before.X+1 {
		t.Errorf("coasted too far: %v", coasted)
	}
}

func TestTrackerUninitializedMiss(t *testing.T) {
	tr := &Tracker{}
	p := tr.Update(geom.Point{}, false)
	if tr.Initialized() || p != (geom.Point{}) {
		t.Error("miss before init must not initialize")
	}
}

func TestGridContains(t *testing.T) {
	g := roomGrid()
	if !g.Contains(geom.Pt2(4, 4)) {
		t.Error("inside point reported outside")
	}
	if g.Contains(geom.Pt2(-1, 4)) || g.Contains(geom.Pt2(4, 9)) {
		t.Error("outside point reported inside")
	}
}

func BenchmarkLocalize(b *testing.B) {
	a1, _ := rf.NewArray(geom.Pt(2, 0, 1.25), geom.Pt2(1, 0), 8)
	a2, _ := rf.NewArray(geom.Pt(0, 2, 1.25), geom.Pt2(0, 1), 8)
	target := geom.Pt(4, 5, 1.25)
	views := []*View{
		bumpView(a1, []float64{a1.AngleTo(target)}, []float64{1}, rf.Rad(3)),
		bumpView(a2, []float64{a2.AngleTo(target)}, []float64{1}, rf.Rad(3)),
	}
	g := roomGrid()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Localize(views, g, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestComputeHeatmap(t *testing.T) {
	a1 := mkArray(t, geom.Pt(2, 0, 1.25), geom.Pt2(1, 0))
	a2 := mkArray(t, geom.Pt(0, 2, 1.25), geom.Pt2(0, 1))
	target := geom.Pt(4, 5, 1.25)
	views := viewsToward(t, []*rf.Array{a1, a2}, target)
	h, err := ComputeHeatmap(views, roomGrid(), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if h.Max <= 0 {
		t.Fatal("empty heatmap")
	}
	// The hottest cell is near the target.
	if d := h.Peak().Dist2D(target); d > 0.3 {
		t.Errorf("heatmap peak %.2f m from target", d)
	}
	// Render is well-formed and marks the target.
	out := h.Render(target)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != h.NY+2 {
		t.Errorf("render lines = %d, want %d", len(lines), h.NY+2)
	}
	if !strings.Contains(out, "X") {
		t.Error("ground-truth mark missing")
	}
	// Unmarked render must show the brightest ramp character somewhere
	// (the marked render may cover the peak cell with 'X').
	if !strings.Contains(h.Render(), "@") {
		t.Error("no bright cell in render")
	}
}

func TestComputeHeatmapValidation(t *testing.T) {
	if _, err := ComputeHeatmap(nil, roomGrid(), 0.2); !errors.Is(err, ErrNoViews) {
		t.Errorf("no views: %v", err)
	}
	a1 := mkArray(t, geom.Pt(2, 0, 1.25), geom.Pt2(1, 0))
	v := bumpView(a1, []float64{1}, []float64{1}, 0.05)
	if _, err := ComputeHeatmap([]*View{v}, Grid{XMin: 1, XMax: 0, YMin: 0, YMax: 1, Cell: 0.1}, 0.2); err == nil {
		t.Error("bad grid must error")
	}
}
