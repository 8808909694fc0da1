package music

import (
	"fmt"
	"math/cmplx"

	"dwatch/internal/cmatrix"
	"dwatch/internal/rf"
)

// Workspace is the reusable per-worker state for repeated MUSIC runs
// against one array with fixed options: the shared steering table plus
// the correlation, smoothing, eigendecomposition, noise-subspace and
// pseudo-spectrum scratch of one scan. Scan runs every stage inside the
// workspace and allocates nothing; Compute and ComputeFromCorrelation
// run the same scan and copy it out into a Result the caller owns, so
// results stay valid forever and may be retained.
//
// A Workspace is not safe for concurrent use; give each goroutine its
// own. The steering table underneath is shared process-wide and
// read-only.
type Workspace struct {
	arr  *rf.Array
	opts Options // resolved: GridSize/Subarray/Threshold are concrete
	tab  *rf.SteeringTable

	corr  *cmatrix.Matrix // M×M correlation accumulator (Scan, Compute)
	sm    *cmatrix.Matrix // L×L smoothed matrix (nil when NoSmoothing)
	eig   cmatrix.EigenWorkspace
	eigen cmatrix.Eigen // decomposition of the last scan
	p     int           // source count of the last scan
	noise []complex128  // noise columns of the last scan, column j at [j·L, (j+1)·L)
	spec  []float64     // pseudo-spectrum of the last scan
}

// NewWorkspace resolves the options for the array and precomputes (or
// fetches the shared) steering table.
func NewWorkspace(arr *rf.Array, opts Options) (*Workspace, error) {
	opts = opts.withDefaults(arr.Elements)
	if opts.NoSmoothing {
		opts.Subarray = arr.Elements
	}
	if opts.Subarray < 2 || opts.Subarray > arr.Elements {
		return nil, fmt.Errorf("%w: subarray size %d for %d elements", ErrBadInput, opts.Subarray, arr.Elements)
	}
	tab, err := rf.SteeringTableFor(arr, opts.GridSize, opts.Subarray)
	if err != nil {
		return nil, err
	}
	w := &Workspace{
		arr:   arr,
		opts:  opts,
		tab:   tab,
		corr:  cmatrix.New(arr.Elements, arr.Elements),
		noise: make([]complex128, opts.Subarray*(opts.Subarray-1)),
		spec:  make([]float64, tab.Len()),
	}
	if !opts.NoSmoothing {
		w.sm = cmatrix.New(opts.Subarray, opts.Subarray)
	}
	return w, nil
}

// Table exposes the steering table so P-MUSIC's beamformer can reuse
// the same precomputed weights.
func (w *Workspace) Table() *rf.SteeringTable { return w.tab }

// Correlation exposes the M×M correlation accumulator filled by the
// last Scan or Compute call, so P-MUSIC's beamformer can evaluate
// Eq. 13 in the correlation domain (PB = aᴴ·R̂·a / M²) without a second
// pass over the snapshots. Only those calls write it, always in full.
// The matrix is workspace scratch: read-only, valid until the next
// call.
func (w *Workspace) Correlation() *cmatrix.Matrix { return w.corr }

// Compute runs MUSIC on an N×M snapshot matrix, passing its row views
// to the same scan Scan runs, and copies the result out.
func (w *Workspace) Compute(x *cmatrix.Matrix) (*Result, error) {
	if _, err := w.Scan(x.RowViews()); err != nil {
		return nil, err
	}
	return w.result(), nil
}

// Scan correlates N snapshot rows of M samples each — the decoded form
// an LLRP tag report carries — and runs every MUSIC stage inside the
// workspace, returning the pseudo-spectrum B(θ) over the table grid.
// This is the one result the package hands back as workspace scratch:
// the slice is read-only and valid until the next call, and
// Correlation reads the same scan's R̂: R = (1/N)·Σ xₙ·xₙᴴ accumulated
// straight from the rows, matching Correlation's arithmetic exactly.
func (w *Workspace) Scan(rows [][]complex128) ([]float64, error) {
	if err := w.CheckRows(rows); err != nil {
		return nil, err
	}
	for i := range w.corr.Data {
		w.corr.Data[i] = 0
	}
	s := 1 / float64(len(rows))
	for _, row := range rows {
		// OuterAdd cannot fail: every row length was checked above.
		_ = w.corr.OuterAdd(row, s)
	}
	if err := w.scan(w.corr); err != nil {
		return nil, err
	}
	return w.spec, nil
}

// CheckRows validates N snapshot rows without correlating them: there
// must be at least one, and every row must span the array. It is the
// validation Scan runs first, so a caller that needs no spectrum of a
// snapshot still rejects exactly the rows it would.
func (w *Workspace) CheckRows(rows [][]complex128) error {
	if len(rows) == 0 {
		return fmt.Errorf("%w: empty snapshot matrix", ErrBadInput)
	}
	for _, row := range rows {
		if len(row) != w.arr.Elements {
			return fmt.Errorf("%w: %d columns for %d-element array", ErrBadInput, len(row), w.arr.Elements)
		}
	}
	return nil
}

// ComputeFromCorrelation runs the MUSIC stages after correlation and
// copies the result out. The returned Result owns its memory (its
// Angles alias the immutable shared grid) and stays valid across
// further workspace calls.
func (w *Workspace) ComputeFromCorrelation(r *cmatrix.Matrix) (*Result, error) {
	if r.Rows != w.arr.Elements || r.Cols != w.arr.Elements {
		return nil, fmt.Errorf("%w: %dx%d correlation for %d-element array", ErrBadInput, r.Rows, r.Cols, w.arr.Elements)
	}
	if err := w.scan(r); err != nil {
		return nil, err
	}
	return w.result(), nil
}

// scan runs smoothing, the eigendecomposition, source estimation and
// the pseudo-spectrum scan of Eq. 8 on r, leaving every stage in the
// workspace.
func (w *Workspace) scan(r *cmatrix.Matrix) error {
	sm := r
	if !w.opts.NoSmoothing {
		smoothInto(w.sm, r, w.opts.Subarray)
		sm = w.sm
	}
	if err := w.eig.Decompose(&w.eigen, sm, w.opts.Eigensolver); err != nil {
		return err
	}
	p := w.opts.Sources
	if p <= 0 {
		p = EstimateSources(w.eigen.Values, w.opts.Threshold)
	}
	if p < 1 {
		p = 1
	}
	l := w.opts.Subarray
	if p >= l {
		p = l - 1
	}
	w.p = p
	noise := w.noise[:l*(l-p)]
	for j := 0; j < l-p; j++ {
		for i := 0; i < l; i++ {
			noise[j*l+i] = w.eigen.Vectors.At(i, p+j)
		}
	}
	scanInto(w.spec, w.tab, noise, l)
	return nil
}

// result copies the last scan into a Result the caller owns, with the
// noise columns back in the row-major L×Q layout.
func (w *Workspace) result() *Result {
	l := w.opts.Subarray
	q := l - w.p
	noise := cmatrix.New(l, q)
	for j := 0; j < q; j++ {
		for i := 0; i < l; i++ {
			noise.Data[i*q+j] = w.noise[j*l+i]
		}
	}
	return &Result{
		Angles:   w.tab.Angles,
		Spectrum: append([]float64(nil), w.spec...),
		Sources:  w.p,
		Noise:    noise,
		Eigen: &cmatrix.Eigen{
			Values:  append([]float64(nil), w.eigen.Values...),
			Vectors: w.eigen.Vectors.Clone(),
		},
		Subarray: l,
	}
}

// scanInto fills spec[i] with the pseudo-spectrum 1/‖a(θᵢ)ᴴ·Uₙ‖² of
// Eq. 8 over the table grid. noise holds the L-long noise columns back
// to back, and the table's conjugated steering rows make every term a
// plain product. Each pass evaluates two grid angles, so a column load
// serves both; per angle the column dots still accumulate over
// ascending rows and the squared norms over ascending columns, so every
// value is bit-identical to a one-angle-at-a-time noiseProjection.
func scanInto(spec []float64, tab *rf.SteeringTable, noise []complex128, l int) {
	q := len(noise) / l
	for i := 0; i < len(spec); i += 2 {
		// An odd grid ends on a pass that evaluates its last angle twice.
		i1 := min(i+1, len(spec)-1)
		a0, a1 := tab.ConjSteering(i)[:l], tab.ConjSteering(i1)[:l]
		var s0, s1 float64
		for j := 0; j < q; j++ {
			col := noise[j*l : (j+1)*l]
			var d0, d1 complex128
			for k := 0; k < l; k++ {
				u := col[k]
				d0 += a0[k] * u
				d1 += a1[k] * u
			}
			s0 += real(d0)*real(d0) + imag(d0)*imag(d0)
			s1 += real(d1)*real(d1) + imag(d1)*imag(d1)
		}
		spec[i], spec[i1] = invClamped(s0), invClamped(s1)
	}
}

// invClamped is the pseudo-spectrum's 1/denominator, with the
// denominator floored at 1e-18 so a steering vector lying in the signal
// subspace yields a tall finite peak instead of +Inf.
func invClamped(denom float64) float64 {
	if denom < 1e-18 {
		denom = 1e-18
	}
	return 1 / denom
}

// smoothInto is SmoothForwardBackward accumulating into dst (already
// sized L×L) — identical arithmetic, zero allocation.
func smoothInto(dst, r *cmatrix.Matrix, l int) {
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	m := r.Rows
	k := m - l + 1
	for s := 0; s < k; s++ {
		for i := 0; i < l; i++ {
			for j := 0; j < l; j++ {
				dst.Data[i*l+j] += r.At(s+i, s+j)
				dst.Data[i*l+j] += cmplx.Conj(r.At(s+l-1-i, s+l-1-j))
			}
		}
	}
	scale := complex(1/float64(2*k), 0)
	for i := range dst.Data {
		dst.Data[i] *= scale
	}
}
