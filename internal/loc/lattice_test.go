package loc_test

import (
	"math"
	"testing"

	"dwatch/internal/channel"
	"dwatch/internal/dwatch"
	"dwatch/internal/loc"
	"dwatch/internal/rf"
	"dwatch/internal/sim"
)

// TestSearchMatchesWalkOnLibraryLattice runs the blocked search on the
// served evidence (dwatch.System views, one round per fix) at every
// point of the library preset's 0.5 m test lattice: the reflector-dense
// room whose fuse stage the search exists to cut. Each fix must find
// the walk's cell with the walk's likelihood bits, and the search must
// actually prune: it evaluates about a tenth of the grid per fix.
func TestSearchMatchesWalkOnLibraryLattice(t *testing.T) {
	if testing.Short() {
		t.Skip("acquires 187 library rounds")
	}
	sc, err := sim.Build(sim.LibraryConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := dwatch.New(sc)
	if err := s.Calibrate(); err != nil {
		t.Fatal(err)
	}
	if err := s.CollectBaseline(); err != nil {
		t.Fatal(err)
	}
	byArray := map[*rf.Array]*loc.GridIndex{}
	for _, r := range sc.Readers {
		g, err := loc.NewGridIndex(r.Array, sc.Grid, s.Config().Music.GridLen())
		if err != nil {
			t.Fatal(err)
		}
		byArray[r.Array] = g
	}
	nx, ny := sc.Grid.Cells()
	var w loc.Workspace
	fixes, cells := 0, 0
	points := sc.TestLocations(0.5)
	for _, p := range points {
		views, err := s.Views([]channel.Target{channel.HumanTarget(p)})
		if err != nil {
			t.Fatal(err)
		}
		if len(views) == 0 {
			continue
		}
		idx := make([]*loc.GridIndex, len(views))
		for i, v := range views {
			idx[i] = byArray[v.Array]
		}
		k, l, ok, evaluated := w.Search(views, idx, sc.Grid)
		if !ok {
			t.Fatalf("point %v: search refused BuildView's drops", p)
		}
		wantK, wantL := loc.WalkIndexed(views, idx)
		if k != wantK || math.Float64bits(l) != math.Float64bits(wantL) {
			t.Fatalf("point %v: search cell %d L=%v, walk cell %d L=%v", p, k, l, wantK, wantL)
		}
		fixes++
		cells += evaluated
	}
	if len(points) != 187 || fixes < 150 {
		t.Fatalf("%d lattice points, %d with views; want 187 and most", len(points), fixes)
	}
	mean := float64(cells) / float64(fixes)
	t.Logf("%d fixes: %.0f of %d cells evaluated per fix", fixes, mean, nx*ny)
	if mean > 0.25*float64(nx*ny) {
		t.Errorf("search evaluated %.0f of %d cells per fix: the block bounds stopped pruning", mean, nx*ny)
	}
}
