// Package music implements the classic MUSIC (MUltiple SIgnal
// Classification) direction-finding algorithm of Schmidt (1986) as
// described in Section 2.2 of the D-Watch paper, together with the
// forward-backward spatial smoothing of Shan, Wax & Kailath (1985) that
// D-Watch applies to decorrelate the fully coherent multipath copies of
// a tag's backscatter (Section 4.2).
package music

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"dwatch/internal/cmatrix"
	"dwatch/internal/rf"
)

// ErrBadInput is returned for malformed snapshot matrices or parameters.
var ErrBadInput = errors.New("music: bad input")

// Correlation computes the sample correlation matrix R = (1/N)·Σ xₙ·xₙᴴ
// from an N×M snapshot matrix (rows are snapshots).
func Correlation(x *cmatrix.Matrix) (*cmatrix.Matrix, error) {
	if x.Rows == 0 || x.Cols == 0 {
		return nil, fmt.Errorf("%w: empty snapshot matrix", ErrBadInput)
	}
	m := x.Cols
	r := cmatrix.New(m, m)
	row := make([]complex128, m)
	for n := 0; n < x.Rows; n++ {
		copy(row, x.Data[n*m:(n+1)*m])
		if err := r.OuterAdd(row, 1/float64(x.Rows)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// SmoothForwardBackward applies forward-backward spatial smoothing to an
// M×M correlation matrix, producing an L×L smoothed matrix from the
// K = M-L+1 forward subarrays and their backward (exchange-conjugated)
// counterparts. Coherent sources up to rank min(2K, L-1) are
// decorrelated.
func SmoothForwardBackward(r *cmatrix.Matrix, l int) (*cmatrix.Matrix, error) {
	m := r.Rows
	if r.Cols != m {
		return nil, fmt.Errorf("%w: correlation matrix must be square", ErrBadInput)
	}
	if l < 2 || l > m {
		return nil, fmt.Errorf("%w: subarray size %d for %d elements", ErrBadInput, l, m)
	}
	k := m - l + 1
	out := cmatrix.New(l, l)
	for s := 0; s < k; s++ {
		for i := 0; i < l; i++ {
			for j := 0; j < l; j++ {
				// Forward subarray starting at s.
				out.Data[i*l+j] += r.At(s+i, s+j)
				// Backward: J·R*·J over the same window.
				out.Data[i*l+j] += cmplx.Conj(r.At(s+l-1-i, s+l-1-j))
			}
		}
	}
	return out.Scale(complex(1/float64(2*k), 0)), nil
}

// DefaultSubarray returns the standard subarray size for an M-element
// array: ceil(2M/3), e.g. 6 for M=8 — leaving 3 forward subarrays,
// enough to decorrelate the ≤5 dominant indoor paths the paper assumes.
func DefaultSubarray(m int) int {
	l := (2*m + 2) / 3
	if l < 2 {
		l = 2
	}
	if l > m {
		l = m
	}
	return l
}

// EstimateSources returns the number of signal eigenvalues: those larger
// than thresh times the smallest eigenvalue (noise floor estimate), with
// the count capped at dim-1 so a noise subspace always remains. This is
// the paper's "eigenvalues larger than a threshold" rule.
func EstimateSources(eigenvalues []float64, thresh float64) int {
	n := len(eigenvalues)
	if n == 0 {
		return 0
	}
	floor := eigenvalues[n-1]
	if floor <= 0 {
		floor = 1e-18
	}
	p := 0
	for _, v := range eigenvalues {
		if v > thresh*floor {
			p++
		}
	}
	if p >= n {
		p = n - 1
	}
	return p
}

// DefaultSourceThreshold is the eigenvalue ratio separating signal from
// noise subspace.
const DefaultSourceThreshold = 10.0

// Result bundles a computed spectrum with the subspace decomposition it
// came from; calibration (Eq. 10-11) reuses the noise subspace.
type Result struct {
	Angles   []float64       // scanned angles, radians
	Spectrum []float64       // MUSIC pseudo-spectrum B(θ) (Eq. 8)
	Sources  int             // estimated source count P
	Noise    *cmatrix.Matrix // L×Q noise subspace Uₙ (columns)
	Eigen    *cmatrix.Eigen  // full eigendecomposition of the smoothed R
	Subarray int             // subarray size L used
}

// Options configures a MUSIC run.
type Options struct {
	GridSize  int     // number of scan angles over [0, π]; 0 = 361
	Subarray  int     // spatial smoothing subarray size; 0 = DefaultSubarray
	Threshold float64 // source detection eigenvalue ratio; 0 = default
	Sources   int     // force source count; 0 = estimate from eigenvalues
	// NoSmoothing skips spatial smoothing entirely (ablation): MUSIC
	// runs on the raw correlation matrix, which is rank-deficient for
	// coherent multipath.
	NoSmoothing bool
	// Eigensolver selects the eigendecomposition backend; the zero
	// value is EigenAuto (tridiagonal QR with Jacobi fallback).
	Eigensolver Eigensolver
}

// GridLen returns the number of scan angles the options resolve to:
// GridSize, or the default 361 when it is zero.
func (o Options) GridLen() int { return o.withDefaults(0).GridSize }

func (o Options) withDefaults(m int) Options {
	if o.GridSize == 0 {
		o.GridSize = 361
	}
	if o.Subarray == 0 {
		o.Subarray = DefaultSubarray(m)
	}
	if o.Threshold == 0 {
		o.Threshold = DefaultSourceThreshold
	}
	return o
}

// Compute runs MUSIC on an N×M snapshot matrix for the given array:
// correlation, forward-backward smoothing, eigendecomposition, source
// estimation and the pseudo-spectrum scan of Eq. 8. It runs a fresh
// Workspace, so the stateless and workspace entry points are one code
// path; repeated callers should hold the Workspace instead.
func Compute(x *cmatrix.Matrix, arr *rf.Array, opts Options) (*Result, error) {
	ws, err := NewWorkspace(arr, opts)
	if err != nil {
		return nil, err
	}
	return ws.Compute(x)
}

// ComputeFromCorrelation runs the MUSIC stages after correlation; use it
// when the correlation matrix is accumulated incrementally. The
// pseudo-spectrum scan consumes the shared precomputed steering table
// for the array — bit-identical to evaluating Array.SteeringSub at every
// grid angle, without the per-angle cmplx.Exp calls or allocations.
// Repeated callers should hold a Workspace instead, which also reuses
// the smoothing and eigendecomposition scratch.
func ComputeFromCorrelation(r *cmatrix.Matrix, arr *rf.Array, opts Options) (*Result, error) {
	ws, err := NewWorkspace(arr, opts)
	if err != nil {
		return nil, err
	}
	return ws.ComputeFromCorrelation(r)
}

// ProjectionOntoNoise returns ‖a(θ)ᴴ·Uₙ‖² — the calibration objective's
// per-tag term (Eq. 10) — for a steering vector already multiplied by
// any phase-offset correction.
func ProjectionOntoNoise(a []complex128, noise *cmatrix.Matrix) float64 {
	return noiseProjection(a, noise)
}

// noiseProjection computes ‖aᴴ·Uₙ‖²: each column dot accumulates in a
// register over ascending rows with direct strided indexing into the
// subspace data, and the squared norms over ascending columns — the
// summation order the workspace's blocked scan (scanInto) keeps, so the
// two agree bit for bit.
func noiseProjection(a []complex128, noise *cmatrix.Matrix) float64 {
	rows, q := noise.Rows, noise.Cols
	data := noise.Data
	a = a[:rows]
	var s float64
	for j := 0; j < q; j++ {
		var dot complex128
		idx := j
		for i := 0; i < rows; i++ {
			dot += cmplx.Conj(a[i]) * data[idx]
			idx += q
		}
		s += real(dot)*real(dot) + imag(dot)*imag(dot)
	}
	return s
}

// Peak is a local maximum of a spectrum.
type Peak struct {
	Index     int     // grid index
	Angle     float64 // radians
	Amplitude float64
}

// FindPeaks returns local maxima of the spectrum that exceed minRatio
// times the global maximum, sorted by amplitude descending. Plateau tops
// are reported once at their left edge.
func FindPeaks(angles, spec []float64, minRatio float64) []Peak {
	return AppendPeaks(nil, angles, spec, minRatio)
}

// AppendPeaks is FindPeaks appending to dst, so a caller that reuses
// one scratch slice finds peaks without allocating. The appended peaks
// are sorted among themselves.
func AppendPeaks(dst []Peak, angles, spec []float64, minRatio float64) []Peak {
	if len(spec) != len(angles) || len(spec) < 3 {
		return dst
	}
	var max float64
	for _, v := range spec {
		if v > max {
			max = v
		}
	}
	if max <= 0 {
		return dst
	}
	start := len(dst)
	for i := 1; i < len(spec)-1; i++ {
		if spec[i] < spec[i-1] || spec[i] < minRatio*max {
			continue
		}
		// Walk any plateau to the right.
		j := i
		for j+1 < len(spec) && spec[j+1] == spec[i] {
			j++
		}
		if j+1 < len(spec) && spec[j+1] >= spec[i] {
			continue // ascending, not a peak
		}
		if spec[i] > spec[i-1] || (j+1 < len(spec) && spec[i] > spec[j+1]) {
			dst = append(dst, Peak{Index: i, Angle: angles[i], Amplitude: spec[i]})
		}
		i = j
	}
	// Sort by amplitude descending (insertion sort, tiny n).
	peaks := dst[start:]
	for i := 1; i < len(peaks); i++ {
		for j := i; j > 0 && peaks[j].Amplitude > peaks[j-1].Amplitude; j-- {
			peaks[j], peaks[j-1] = peaks[j-1], peaks[j]
		}
	}
	return dst
}

// NearestPeak returns the peak closest in angle to want, or ok=false if
// none is within tol radians.
func NearestPeak(peaks []Peak, want, tol float64) (Peak, bool) {
	best := Peak{}
	bestD := math.Inf(1)
	for _, p := range peaks {
		if d := math.Abs(p.Angle - want); d < bestD {
			best, bestD = p, d
		}
	}
	if bestD <= tol {
		return best, true
	}
	return Peak{}, false
}

// SourceMethod selects how the signal-subspace dimension is estimated.
type SourceMethod int

// Source-count estimators.
const (
	// MethodThreshold is the paper's rule: eigenvalues above a ratio of
	// the noise floor count as signals.
	MethodThreshold SourceMethod = iota
	// MethodMDL is Wax & Kailath's minimum description length
	// criterion — consistent (picks the true count as snapshots grow).
	MethodMDL
	// MethodAIC is the Akaike information criterion — less conservative
	// than MDL, tends to overestimate at high SNR.
	MethodAIC
)

// InfoCriterionSources estimates the source count from the
// eigenvalues of an L×L correlation matrix built from n snapshots,
// minimizing the MDL or AIC cost
//
//	-n·(L-k)·log( geoMean(λ_{k+1..L}) / mean(λ_{k+1..L}) ) + penalty(k)
//
// with penalty ½k(2L−k)·log n for MDL and k(2L−k) for AIC. The count is
// capped at L−1 so a noise subspace always remains.
func InfoCriterionSources(eigenvalues []float64, n int, method SourceMethod) int {
	l := len(eigenvalues)
	if l < 2 || n < 1 {
		return 0
	}
	bestK, bestCost := 0, math.Inf(1)
	for k := 0; k < l; k++ {
		q := l - k
		var logSum, sum float64
		degenerate := false
		for _, v := range eigenvalues[k:] {
			if v <= 0 {
				degenerate = true
				break
			}
			logSum += math.Log(v)
			sum += v
		}
		if degenerate {
			break
		}
		geo := logSum / float64(q)          // log of geometric mean
		arith := math.Log(sum / float64(q)) // log of arithmetic mean
		fit := -float64(n) * float64(q) * (geo - arith)
		var penalty float64
		switch method {
		case MethodAIC:
			penalty = float64(k * (2*l - k))
		default: // MDL
			penalty = 0.5 * float64(k*(2*l-k)) * math.Log(float64(n))
		}
		if cost := fit + penalty; cost < bestCost {
			bestK, bestCost = k, cost
		}
	}
	if bestK >= l {
		bestK = l - 1
	}
	return bestK
}

// RefineAngle returns a sub-grid estimate of a spectrum peak's angle by
// fitting a parabola to the log-spectrum at the peak and its two
// neighbours. Grid sampling quantizes peaks to the scan step (0.5° at
// the default 361-point grid); the refinement recovers a fraction of
// that. Edge peaks are returned unrefined.
func RefineAngle(angles, spec []float64, idx int) float64 {
	if idx <= 0 || idx >= len(spec)-1 || len(angles) != len(spec) {
		return angles[clampIdx(idx, len(angles))]
	}
	ym, y0, yp := spec[idx-1], spec[idx], spec[idx+1]
	if ym <= 0 || y0 <= 0 || yp <= 0 {
		return angles[idx]
	}
	lm, l0, lp := math.Log(ym), math.Log(y0), math.Log(yp)
	den := lm - 2*l0 + lp
	if den >= 0 { // not concave: no parabolic vertex above the samples
		return angles[idx]
	}
	delta := 0.5 * (lm - lp) / den
	if delta < -1 || delta > 1 {
		return angles[idx]
	}
	step := angles[1] - angles[0]
	return angles[idx] + delta*step
}

func clampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}
