package pmusic

import (
	"errors"
	"math/cmplx"
	"math/rand"
	"testing"

	"dwatch/internal/cmatrix"
	"dwatch/internal/music"
	"dwatch/internal/rf"
)

// preTableBeamPower is the pre-steering-table Eq. 13 loop: weights
// recomputed with cmplx.Exp at every angle. The table path must match
// it bit for bit.
func preTableBeamPower(x *cmatrix.Matrix, arr *rf.Array, angles []float64) []float64 {
	m := arr.Elements
	out := make([]float64, len(angles))
	for ai, th := range angles {
		w := make([]complex128, m)
		for mi := 0; mi < m; mi++ {
			w[mi] = cmplx.Exp(complex(0, arr.Omega(mi, th)))
		}
		out[ai] = beamPowerAt(x, w)
	}
	return out
}

func TestBeamPowerTablePathBitIdentical(t *testing.T) {
	arr := testArray(t, 8)
	rng := rand.New(rand.NewSource(5))
	x := synth(arr, []float64{0.8, 2.1}, []float64{1, 0.5}, 24, 0.05, rng)
	for _, n := range []int{91, 181, 361} {
		grid := rf.AngleGrid(n)
		got, err := BeamPower(x, arr, grid)
		if err != nil {
			t.Fatal(err)
		}
		want := preTableBeamPower(x, arr, grid)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: BeamPower[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
	}
	// A non-uniform grid takes the fallback path and must still agree.
	odd := []float64{0.1, 0.5, 0.6, 2.9}
	got, err := BeamPower(x, arr, odd)
	if err != nil {
		t.Fatal(err)
	}
	want := preTableBeamPower(x, arr, odd)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fallback BeamPower[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestWorkspaceComputeBitIdentical(t *testing.T) {
	arr := testArray(t, 8)
	rng := rand.New(rand.NewSource(6))
	ws, err := NewWorkspace(arr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every result is checked after all three runs, so a result that
	// aliased workspace scratch would show the last run's values.
	var wants, gots []*Spectrum
	for trial := 0; trial < 3; trial++ {
		x := synth(arr, []float64{0.6 + 0.4*float64(trial), 2.2}, []float64{1, 0.7}, 20, 0.05, rng)
		want, err := Compute(x, arr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ws.Compute(x.RowViews())
		if err != nil {
			t.Fatal(err)
		}
		wants, gots = append(wants, want), append(gots, got)
	}
	for trial, want := range wants {
		got := gots[trial]
		for i := range want.Power {
			if got.Power[i] != want.Power[i] {
				t.Fatalf("trial %d: Power[%d] = %v, want %v", trial, i, got.Power[i], want.Power[i])
			}
			if got.Beam[i] != want.Beam[i] {
				t.Fatalf("trial %d: Beam[%d] = %v, want %v", trial, i, got.Beam[i], want.Beam[i])
			}
			if got.Angles[i] != want.Angles[i] {
				t.Fatalf("trial %d: Angles[%d] differ", trial, i)
			}
		}
	}
}

func TestWorkspaceSteadyStateAllocs(t *testing.T) {
	arr := testArray(t, 8)
	rng := rand.New(rand.NewSource(8))
	x := synth(arr, []float64{1.3}, []float64{1}, 20, 0.05, rng)
	ws, err := NewWorkspace(arr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := x.RowViews()
	if _, err := ws.Compute(rows); err != nil {
		t.Fatal(err)
	}
	// Only the returned Spectrum and the one array its Power and Beam
	// share may allocate; every stage's scratch lives in the workspace.
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ws.Compute(rows); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("steady-state Workspace.Compute allocates %.0f times per run, want ≤2", allocs)
	}
}

func TestPowerAtUniformGridMatchesLinearScan(t *testing.T) {
	grid := rf.AngleGrid(181)
	power := make([]float64, len(grid))
	for i := range power {
		power[i] = float64(i) * 0.5
	}
	s := &Spectrum{Angles: grid, Power: power}
	for theta := -0.3; theta < 3.5; theta += 0.017 {
		best, bestD := 0, 1e300
		for i, g := range grid {
			d := g - theta
			if d < 0 {
				d = -d
			}
			if d < bestD {
				best, bestD = i, d
			}
		}
		if got := s.PowerAt(theta); got != power[best] {
			t.Fatalf("PowerAt(%v) = %v, want %v (bin %d)", theta, got, power[best], best)
		}
	}
}

// TestBeamAtBitIdenticalToCompute: the monitored-peak path returns
// exactly Compute(rows).Beam at every grid index — each index alone,
// and the whole grid in one call, in an order Compute never uses — for
// several array sizes, on a workspace that also runs full spectra in
// between.
func TestBeamAtBitIdenticalToCompute(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, m := range []int{4, 8, 12} {
		arr := testArray(t, m)
		ws, err := NewWorkspace(arr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 3; trial++ {
			x := synth(arr, []float64{0.5 + 0.5*float64(trial), 2.3}, []float64{1, 0.5}, 10, 0.05, rng)
			rows := x.RowViews()
			want, err := ws.Compute(rows)
			if err != nil {
				t.Fatal(err)
			}
			one := make([]float64, 1)
			for i := range want.Beam {
				if err := ws.BeamAt(rows, []int{i}, one); err != nil {
					t.Fatal(err)
				}
				if one[0] != want.Beam[i] {
					t.Fatalf("m=%d trial %d: BeamAt(%d) = %v, want %v", m, trial, i, one[0], want.Beam[i])
				}
			}
			idx := make([]int, len(want.Beam))
			for i := range idx {
				idx[i] = len(idx) - 1 - i
			}
			all := make([]float64, len(idx))
			if err := ws.BeamAt(rows, idx, all); err != nil {
				t.Fatal(err)
			}
			for k, i := range idx {
				if all[k] != want.Beam[i] {
					t.Fatalf("m=%d trial %d: reversed BeamAt[%d] = %v, want Beam[%d] = %v", m, trial, k, all[k], i, want.Beam[i])
				}
			}
		}
	}
}

// TestComputeAfterBeamAtBitIdentical: BeamAt's half-filled
// correlation never leaks into a full spectrum. A Compute run after
// BeamAt on the same workspace returns the same Power and Beam bits as
// a fresh workspace's Compute.
func TestComputeAfterBeamAtBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, m := range []int{4, 8} {
		arr := testArray(t, m)
		used, err := NewWorkspace(arr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 3; trial++ {
			before := synth(arr, []float64{0.4 + 0.6*float64(trial), 2.2}, []float64{1, 0.7}, 10, 0.05, rng)
			x := synth(arr, []float64{1.0, 2.6 - 0.3*float64(trial)}, []float64{1, 0.5}, 10, 0.05, rng)
			out := make([]float64, 3)
			if err := used.BeamAt(before.RowViews(), []int{20, 180, 340}, out); err != nil {
				t.Fatal(err)
			}
			got, err := used.Compute(x.RowViews())
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := NewWorkspace(arr, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Compute(x.RowViews())
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Power {
				if got.Power[i] != want.Power[i] || got.Beam[i] != want.Beam[i] {
					t.Fatalf("m=%d trial %d angle %d: after BeamAt (%v, %v), fresh (%v, %v)",
						m, trial, i, got.Power[i], got.Beam[i], want.Power[i], want.Beam[i])
				}
			}
		}
	}
}

// TestBeamAtAllocs: evaluating monitored peaks allocates nothing.
func TestBeamAtAllocs(t *testing.T) {
	arr := testArray(t, 8)
	x := synth(arr, []float64{1.3, 2.0}, []float64{1, 0.6}, 10, 0.05, rand.New(rand.NewSource(13)))
	ws, err := NewWorkspace(arr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := x.RowViews()
	idx := []int{40, 180, 300}
	out := make([]float64, len(idx))
	allocs := testing.AllocsPerRun(50, func() {
		if err := ws.BeamAt(rows, idx, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("BeamAt allocates %.0f times per run, want 0", allocs)
	}
}

// TestBeamAtRejects: BeamAt rejects the rows Compute rejects — with or
// without indices to evaluate — and indices outside the steering table.
func TestBeamAtRejects(t *testing.T) {
	arr := testArray(t, 8)
	ws, err := NewWorkspace(arr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := arr.Elements
	good := [][]complex128{make([]complex128, m), make([]complex128, m)}
	bad := map[string][][]complex128{
		"empty":  {},
		"narrow": {make([]complex128, m-1), make([]complex128, m-1)},
		"ragged": {make([]complex128, m), make([]complex128, m+1)},
	}
	for name, rows := range bad {
		if _, err := ws.Compute(rows); !errors.Is(err, music.ErrBadInput) {
			t.Fatalf("%s: Compute err = %v, want music.ErrBadInput", name, err)
		}
		for _, idx := range [][]int{{10, 20}, nil} {
			if err := ws.BeamAt(rows, idx, make([]float64, len(idx))); !errors.Is(err, music.ErrBadInput) {
				t.Fatalf("%s with %d indices: BeamAt err = %v, want music.ErrBadInput", name, len(idx), err)
			}
		}
	}
	if err := ws.BeamAt(good, nil, nil); err != nil {
		t.Fatalf("validation-only BeamAt on good rows: %v", err)
	}
	for _, idx := range [][]int{{-1}, {361}, {0, 1000}} {
		if err := ws.BeamAt(good, idx, make([]float64, len(idx))); !errors.Is(err, music.ErrBadInput) {
			t.Fatalf("indices %v: err = %v, want music.ErrBadInput", idx, err)
		}
	}
	if err := ws.BeamAt(good, []int{1, 2}, make([]float64, 1)); !errors.Is(err, music.ErrBadInput) {
		t.Fatalf("short out: err = %v, want music.ErrBadInput", err)
	}
}
