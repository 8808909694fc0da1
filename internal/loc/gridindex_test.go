package loc

import (
	"math"
	"testing"

	"dwatch/internal/geom"
	"dwatch/internal/rf"
)

func mustIndexes(t *testing.T, views []*View, grid Grid) []*GridIndex {
	t.Helper()
	idx := make([]*GridIndex, len(views))
	for i, v := range views {
		g, err := NewGridIndex(v.Array, grid, len(v.Angles))
		if err != nil {
			t.Fatal(err)
		}
		idx[i] = g
	}
	return idx
}

func TestGridIndexMatchesDirectLookup(t *testing.T) {
	arr := mkArray(t, geom.Pt(2, 0, 1.25), geom.Pt2(1, 0))
	grid := roomGrid()
	g, err := NewGridIndex(arr, grid, 361)
	if err != nil {
		t.Fatal(err)
	}
	nx, ny := grid.Cells()
	if g.NX != nx || g.NY != ny || g.Bins != 361 {
		t.Fatalf("index dims = %dx%d/%d, want %dx%d/361", g.NX, g.NY, g.Bins, nx, ny)
	}
	for iy := 0; iy < ny; iy += 7 {
		for ix := 0; ix < nx; ix += 7 {
			want := rf.GridBin(arr.AngleTo(grid.CellAt(ix, iy)), 361)
			if got := g.Bin(ix, iy); got != want {
				t.Fatalf("Bin(%d,%d) = %d, want %d", ix, iy, got, want)
			}
		}
	}
}

func TestLocalizeIndexedBitIdentical(t *testing.T) {
	arrays := []*rf.Array{
		mkArray(t, geom.Pt(2, 0, 1.25), geom.Pt2(1, 0)),
		mkArray(t, geom.Pt(0, 2, 1.25), geom.Pt2(0, 1)),
		mkArray(t, geom.Pt(2, 8, 1.25), geom.Pt2(1, 0)),
	}
	grid := roomGrid()
	for _, target := range []geom.Point{
		geom.Pt(4, 5, 1.25),
		geom.Pt(1.1, 6.3, 1.25),
		geom.Pt(7.9, 7.9, 1.25), // last row/column: regression for drift-free cell iteration
	} {
		views := viewsToward(t, arrays, target)
		want, err := Localize(views, grid, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := new(Workspace).LocalizeIndexed(views, mustIndexes(t, views, grid), grid, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Exact equality, not tolerance: the indexed search must visit
		// the same cells with the same likelihood arithmetic.
		if got.Pos != want.Pos || got.Likelihood != want.Likelihood || got.Confidence != want.Confidence {
			t.Errorf("target %v: indexed %+v, direct %+v", target, got, want)
		}
	}
}

func TestLocalizeMultiIndexedBitIdentical(t *testing.T) {
	a1 := mkArray(t, geom.Pt(2, 0, 1.25), geom.Pt2(1, 0))
	a2 := mkArray(t, geom.Pt(0, 2, 1.25), geom.Pt2(0, 1))
	t1 := geom.Pt(2.5, 5.5, 1.25)
	t2 := geom.Pt(6, 2.5, 1.25)
	mk := func(a *rf.Array) *View {
		return bumpView(a, []float64{a.AngleTo(t1), a.AngleTo(t2)}, []float64{1, 0.8}, rf.Rad(3))
	}
	views := []*View{mk(a1), mk(a2)}
	grid := roomGrid()
	want, err := LocalizeMulti(views, grid, 3, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := LocalizeMultiIndexed(views, mustIndexes(t, views, grid), grid, 3, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("indexed found %d targets, direct %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Pos != want[i].Pos || got[i].Likelihood != want[i].Likelihood {
			t.Errorf("target %d: indexed %+v, direct %+v", i, got[i], want[i])
		}
	}
}

func TestLocalizeIndexedValidation(t *testing.T) {
	arr := mkArray(t, geom.Pt(2, 0, 1.25), geom.Pt2(1, 0))
	grid := roomGrid()
	v := bumpView(arr, []float64{math.Pi / 2}, []float64{1}, rf.Rad(3))
	good, err := NewGridIndex(arr, grid, len(v.Angles))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := new(Workspace).LocalizeIndexed([]*View{v}, nil, grid, Options{}); err == nil {
		t.Error("missing index tables must be rejected")
	}
	if _, err := new(Workspace).LocalizeIndexed([]*View{v}, []*GridIndex{nil}, grid, Options{}); err == nil {
		t.Error("nil index table must be rejected")
	}
	wrongBins, err := NewGridIndex(arr, grid, 91)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := new(Workspace).LocalizeIndexed([]*View{v}, []*GridIndex{wrongBins}, grid, Options{}); err == nil {
		t.Error("angle-bin mismatch must be rejected")
	}
	smaller := grid
	smaller.XMax = 4
	wrongGrid, err := NewGridIndex(arr, smaller, len(v.Angles))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := new(Workspace).LocalizeIndexed([]*View{v}, []*GridIndex{wrongGrid}, grid, Options{}); err == nil {
		t.Error("grid-shape mismatch must be rejected")
	}
	if _, err := NewGridIndex(arr, grid, 0); err == nil {
		t.Error("zero angle bins must be rejected")
	}
	if good == nil {
		t.Fatal("unreachable")
	}
}

// TestGridCellsCoverFullExtent guards the integer-index grid iteration:
// the float-accumulation loop it replaced could lose the last row or
// column to rounding drift.
func TestGridCellsCoverFullExtent(t *testing.T) {
	g := Grid{XMin: 0, XMax: 8, YMin: 0, YMax: 8, Cell: 0.05, Z: 1.25}
	nx, ny := g.Cells()
	if nx != 161 || ny != 161 {
		t.Fatalf("Cells = %dx%d, want 161x161", nx, ny)
	}
	last := g.CellAt(nx-1, ny-1)
	if math.Abs(last.X-8) > 1e-9 || math.Abs(last.Y-8) > 1e-9 {
		t.Errorf("last cell = %v, want (8, 8)", last)
	}
	if first := g.CellAt(0, 0); first.X != 0 || first.Y != 0 || first.Z != 1.25 {
		t.Errorf("first cell = %v", first)
	}
}
