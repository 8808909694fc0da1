package music

import (
	"errors"
	"math/rand"
	"testing"

	"dwatch/internal/cmatrix"
	"dwatch/internal/rf"
)

// pseudoSpectrum is the one-angle reference for Eq. 8,
// 1 / (aᴴ·Uₙ·Uₙᴴ·a), that the workspace's blocked scan must reproduce
// bit for bit.
func pseudoSpectrum(a []complex128, noise *cmatrix.Matrix) float64 {
	denom := noiseProjection(a, noise)
	if denom < 1e-18 {
		denom = 1e-18
	}
	return 1 / denom
}

// preTableCompute replicates the pre-steering-table MUSIC pipeline from
// primitives that did not change: it is the reference the cached path
// must match bit for bit.
func preTableCompute(t *testing.T, x *cmatrix.Matrix, arr *rf.Array, opts Options) *Result {
	t.Helper()
	opts = opts.withDefaults(arr.Elements)
	r, err := Correlation(x)
	if err != nil {
		t.Fatal(err)
	}
	sm := r
	if opts.NoSmoothing {
		opts.Subarray = arr.Elements
	} else {
		if sm, err = SmoothForwardBackward(r, opts.Subarray); err != nil {
			t.Fatal(err)
		}
	}
	eig, err := cmatrix.EigenHermitian(sm)
	if err != nil {
		t.Fatal(err)
	}
	p := opts.Sources
	if p <= 0 {
		p = EstimateSources(eig.Values, opts.Threshold)
	}
	if p < 1 {
		p = 1
	}
	l := opts.Subarray
	if p >= l {
		p = l - 1
	}
	q := l - p
	noise := cmatrix.New(l, q)
	for j := 0; j < q; j++ {
		col := eig.Vectors.Col(p + j)
		for i := 0; i < l; i++ {
			noise.Set(i, j, col[i])
		}
	}
	angles := rf.AngleGrid(opts.GridSize)
	spec := make([]float64, len(angles))
	for i, th := range angles {
		spec[i] = pseudoSpectrum(arr.SteeringSub(th, l), noise)
	}
	return &Result{Angles: angles, Spectrum: spec, Sources: p, Noise: noise, Eigen: eig, Subarray: l}
}

func sameResult(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	if got.Sources != want.Sources || got.Subarray != want.Subarray {
		t.Fatalf("%s: sources/subarray = %d/%d, want %d/%d",
			tag, got.Sources, got.Subarray, want.Sources, want.Subarray)
	}
	if len(got.Angles) != len(want.Angles) || len(got.Spectrum) != len(want.Spectrum) {
		t.Fatalf("%s: grid sizes differ", tag)
	}
	for i := range want.Spectrum {
		if got.Angles[i] != want.Angles[i] {
			t.Fatalf("%s: Angles[%d] = %v, want %v", tag, i, got.Angles[i], want.Angles[i])
		}
		// Exact float equality: the cached path claims bit-identity.
		if got.Spectrum[i] != want.Spectrum[i] {
			t.Fatalf("%s: Spectrum[%d] = %v, want %v", tag, i, got.Spectrum[i], want.Spectrum[i])
		}
	}
	for i := range want.Noise.Data {
		if got.Noise.Data[i] != want.Noise.Data[i] {
			t.Fatalf("%s: noise subspace differs at %d", tag, i)
		}
	}
	for i := range want.Eigen.Values {
		if got.Eigen.Values[i] != want.Eigen.Values[i] {
			t.Fatalf("%s: eigenvalue %d differs", tag, i)
		}
	}
}

func TestWorkspaceBitIdenticalToPreTablePath(t *testing.T) {
	arr := testArray(t, 8)
	rng := rand.New(rand.NewSource(7))
	for _, opts := range []Options{
		{},
		{GridSize: 181},
		{Sources: 3},
		{NoSmoothing: true},
		{Subarray: 4, Threshold: 5},
	} {
		x := synthSnapshots(arr, []float64{0.7, 1.9}, []float64{1, 0.6}, 24, 0.05, true, rng)
		want := preTableCompute(t, x, arr, opts)

		got, err := Compute(x, arr, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		sameResult(t, "Compute", got, want)

		ws, err := NewWorkspace(arr, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err = ws.Compute(x)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "Workspace.Compute", got, want)
	}
}

func TestWorkspaceReuseDoesNotCrossContaminate(t *testing.T) {
	arr := testArray(t, 8)
	rng := rand.New(rand.NewSource(9))
	ws, err := NewWorkspace(arr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]*cmatrix.Matrix, 4)
	for i := range inputs {
		inputs[i] = synthSnapshots(arr, []float64{0.4 + 0.5*float64(i)}, []float64{1}, 20, 0.1, true, rng)
	}
	// Results computed through one reused workspace must match fresh
	// per-call computation, and earlier results must stay intact after
	// later calls overwrite the scratch.
	results := make([]*Result, len(inputs))
	for i, x := range inputs {
		r, err := ws.Compute(x)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = r
	}
	for i, x := range inputs {
		want, err := Compute(x, arr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "reused workspace", results[i], want)
	}
}

func TestWorkspaceSteadyStateAllocs(t *testing.T) {
	arr := testArray(t, 8)
	rng := rand.New(rand.NewSource(11))
	x := synthSnapshots(arr, []float64{1.2}, []float64{1}, 20, 0.05, true, rng)
	ws, err := NewWorkspace(arr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Compute(x); err != nil {
		t.Fatal(err)
	}
	// Only the escaping Result (spectrum, noise subspace, eigendecomp)
	// may allocate; all scan/smoothing/Jacobi scratch is reused.
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ws.Compute(x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Errorf("steady-state Workspace.Compute allocates %.0f times per run, want ≤16", allocs)
	}
}

// TestBlockedScanMatchesPseudoSpectrum pins the two-angle scan to the
// one-angle reference with exact equality: every noise-subspace
// dimension from 1 to L−1, an even and an odd grid (the odd one ends
// on a pass that evaluates its last angle twice), and every eigensolver
// setting.
func TestBlockedScanMatchesPseudoSpectrum(t *testing.T) {
	arr := testArray(t, 8)
	rng := rand.New(rand.NewSource(23))
	x := synthSnapshots(arr, []float64{0.7, 1.9, 2.5}, []float64{1, 0.6, 0.4}, 24, 0.05, true, rng)
	for _, solver := range []Eigensolver{EigenAuto, EigenQR, EigenJacobi} {
		for _, grid := range []int{180, 181} {
			for _, base := range []Options{{}, {Subarray: 4}, {NoSmoothing: true}} {
				ws, err := NewWorkspace(arr, base)
				if err != nil {
					t.Fatal(err)
				}
				l := ws.opts.Subarray
				for q := 1; q < l; q++ {
					opts := base
					opts.GridSize, opts.Eigensolver, opts.Sources = grid, solver, l-q
					ws, err := NewWorkspace(arr, opts)
					if err != nil {
						t.Fatal(err)
					}
					res, err := ws.Compute(x)
					if err != nil {
						t.Fatal(err)
					}
					if res.Noise.Rows != l || res.Noise.Cols != q {
						t.Fatalf("%v grid=%d L=%d: noise %dx%d, want %dx%d",
							solver, grid, l, res.Noise.Rows, res.Noise.Cols, l, q)
					}
					for i, th := range res.Angles {
						want := pseudoSpectrum(arr.SteeringSub(th, l), res.Noise)
						if res.Spectrum[i] != want {
							t.Fatalf("%v grid=%d L=%d Q=%d: spectrum[%d] = %v, want %v",
								solver, grid, l, q, i, res.Spectrum[i], want)
						}
					}
				}
			}
		}
	}
}

// TestScanMatchesComputeWithoutAllocating: Scan is the same scan as
// Compute, straight from snapshot rows, and allocates nothing once
// warm.
func TestScanMatchesComputeWithoutAllocating(t *testing.T) {
	arr := testArray(t, 8)
	rng := rand.New(rand.NewSource(31))
	x := synthSnapshots(arr, []float64{1.1, 2.3}, []float64{1, 0.5}, 20, 0.05, true, rng)
	ws, err := NewWorkspace(arr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ws.Compute(x)
	if err != nil {
		t.Fatal(err)
	}
	rows := x.RowViews()
	spec, err := ws.Scan(rows)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Spectrum {
		if spec[i] != want.Spectrum[i] {
			t.Fatalf("Scan[%d] = %v, Compute %v", i, spec[i], want.Spectrum[i])
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ws.Scan(rows); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Scan allocates %.0f times per run, want 0", allocs)
	}
	for _, bad := range [][][]complex128{nil, {}, {make([]complex128, 7)}, {make([]complex128, 8), make([]complex128, 9)}} {
		if _, err := ws.Scan(bad); !errors.Is(err, ErrBadInput) {
			t.Errorf("Scan(%d rows) = %v, want ErrBadInput", len(bad), err)
		}
	}
}
