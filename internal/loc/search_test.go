package loc

import (
	"math"
	"math/rand"
	"testing"

	"dwatch/internal/geom"
	"dwatch/internal/rf"
)

// randomSearchCase builds 1–4 views over a grid whose sides are
// rarely multiples of blockSide. Drops mix Gaussian bumps (some at 0
// and π, the ends of the angle grid), coarse quantized levels that
// make exact likelihood ties, and all-zero views whose every cell
// scores ε.
func randomSearchCase(t *testing.T, rng *rand.Rand) ([]*View, Grid) {
	t.Helper()
	const cell = 0.05
	nx, ny := 1+rng.Intn(70), 1+rng.Intn(70)
	grid := Grid{
		XMin: rng.Float64() * 2, YMin: rng.Float64() * 2, Cell: cell, Z: 1.25,
	}
	grid.XMax = grid.XMin + float64(nx-1)*cell + cell/2
	grid.YMax = grid.YMin + float64(ny-1)*cell + cell/2
	bins := []int{361, 361, 91, 7}[rng.Intn(4)]
	views := make([]*View, 1+rng.Intn(4))
	for i := range views {
		origin := geom.Pt(grid.XMin+rng.Float64()*6-2, grid.YMin+rng.Float64()*6-2, 1.25)
		th := rng.Float64() * 2 * math.Pi
		arr := mkArray(t, origin, geom.Pt2(math.Cos(th), math.Sin(th)))
		angles := rf.AngleGrid(bins)
		drop := make([]float64, bins)
		switch rng.Intn(4) {
		case 0: // all ε
		case 1: // quantized levels: ties within and across blocks
			for j := range drop {
				drop[j] = float64(rng.Intn(3)) / 2
			}
		default: // Gaussian bumps, sometimes pinned to the grid ends
			for n := 1 + rng.Intn(3); n > 0; n-- {
				at := rng.Float64() * math.Pi
				switch rng.Intn(4) {
				case 0:
					at = 0
				case 1:
					at = math.Pi
				}
				amp, sigma := rng.Float64(), rf.Rad(1+rng.Float64()*10)
				for j, a := range angles {
					d := a - at
					drop[j] += amp * math.Exp(-d*d/(2*sigma*sigma))
				}
			}
		}
		views[i] = &View{Array: arr, Angles: angles, Drop: drop}
	}
	return views, grid
}

// TestSearchMatchesWalk pins the blocked search to the full walk: the
// same cell and the same likelihood bits on random views, with one
// warm Workspace reused across grids and view counts of every size.
// Every tenth case also runs the whole localizer against Localize.
func TestSearchMatchesWalk(t *testing.T) {
	trials := 1500
	if testing.Short() {
		trials = 300
	}
	rng := rand.New(rand.NewSource(21))
	var w Workspace
	for trial := 0; trial < trials; trial++ {
		views, grid := randomSearchCase(t, rng)
		indexes := mustIndexes(t, views, grid)
		nx, ny := grid.Cells()
		gotK, gotL, ok := w.search(views, indexes, nx, ny)
		if !ok {
			t.Fatalf("trial %d: search refused valid drops", trial)
		}
		wantK, wantL := walkIndexed(views, indexes)
		if gotK != wantK || math.Float64bits(gotL) != math.Float64bits(wantL) {
			t.Fatalf("trial %d (%d views, %dx%d cells): search cell %d L=%v, walk cell %d L=%v",
				trial, len(views), nx, ny, gotK, gotL, wantK, wantL)
		}
		if trial%10 != 0 {
			continue
		}
		got, gotErr := w.LocalizeIndexed(views, indexes, grid, Options{})
		want, wantErr := Localize(views, grid, Options{})
		if (gotErr == nil) != (wantErr == nil) || got != want {
			t.Fatalf("trial %d: indexed %+v (%v), direct %+v (%v)", trial, got, gotErr, want, wantErr)
		}
	}
}

// TestSearchPreconditionFallsBack: a NaN, negative or infinite drop
// breaks the bound's exactness, so the search declines and
// LocalizeIndexed walks — still matching Localize bit for bit.
func TestSearchPreconditionFallsBack(t *testing.T) {
	a1 := mkArray(t, geom.Pt(2, 0, 1.25), geom.Pt2(1, 0))
	a2 := mkArray(t, geom.Pt(0, 2, 1.25), geom.Pt2(0, 1))
	target := geom.Pt(4, 5, 1.25)
	grid := roomGrid()
	for _, bad := range []float64{math.NaN(), -0.5, math.Inf(1)} {
		views := viewsToward(t, []*rf.Array{a1, a2}, target)
		views[1].Drop[200] = bad
		indexes := mustIndexes(t, views, grid)
		var w Workspace
		nx, ny := grid.Cells()
		if _, _, ok := w.search(views, indexes, nx, ny); ok {
			t.Fatalf("drop %v: search accepted it", bad)
		}
		got, gotErr := w.LocalizeIndexed(views, indexes, grid, Options{})
		want, wantErr := Localize(views, grid, Options{})
		if (gotErr == nil) != (wantErr == nil) || got.Pos != want.Pos ||
			math.Float64bits(got.Likelihood) != math.Float64bits(want.Likelihood) {
			t.Fatalf("drop %v: indexed %+v (%v), direct %+v (%v)", bad, got, gotErr, want, wantErr)
		}
	}
}

// TestSearchAllocatesNothing: with warm scratch, a fix allocates
// nothing — bounds, block evaluation and hill climb included.
func TestSearchAllocatesNothing(t *testing.T) {
	a1 := mkArray(t, geom.Pt(2, 0, 1.25), geom.Pt2(1, 0))
	a2 := mkArray(t, geom.Pt(0, 2, 1.25), geom.Pt2(0, 1))
	a3 := mkArray(t, geom.Pt(2, 8, 1.25), geom.Pt2(1, 0))
	views := viewsToward(t, []*rf.Array{a1, a2, a3}, geom.Pt(4, 5, 1.25))
	grid := roomGrid()
	indexes := mustIndexes(t, views, grid)
	var w Workspace
	if _, err := w.LocalizeIndexed(views, indexes, grid, Options{}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := w.LocalizeIndexed(views, indexes, grid, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("LocalizeIndexed with warm scratch: %v allocs per fix, want 0", allocs)
	}
}

// TestGridIndexBlockRanges: every cell's bin lies within its block's
// recorded range, and each range is attained by some cell.
func TestGridIndexBlockRanges(t *testing.T) {
	arr := mkArray(t, geom.Pt(2, 0, 1.25), geom.Pt2(1, 0))
	grid := Grid{XMin: 0, XMax: 2.5, YMin: 0, YMax: 1.7, Cell: 0.05, Z: 1.25} // 51×35 cells
	g, err := NewGridIndex(arr, grid, 361)
	if err != nil {
		t.Fatal(err)
	}
	if g.bx != 4 || len(g.lo) != 4*3 {
		t.Fatalf("blocks = %d per row, %d total; want 4, 12", g.bx, len(g.lo))
	}
	lo := make([]int, len(g.lo))
	hi := make([]int, len(g.lo))
	for b := range lo {
		lo[b], hi[b] = math.MaxInt, -1
	}
	for iy := 0; iy < g.NY; iy++ {
		for ix := 0; ix < g.NX; ix++ {
			b := iy/blockSide*g.bx + ix/blockSide
			lo[b], hi[b] = min(lo[b], g.Bin(ix, iy)), max(hi[b], g.Bin(ix, iy))
		}
	}
	for b := range lo {
		if int(g.lo[b]) != lo[b] || int(g.hi[b]) != hi[b] {
			t.Fatalf("block %d: range [%d, %d], cells span [%d, %d]", b, g.lo[b], g.hi[b], lo[b], hi[b])
		}
	}
}
