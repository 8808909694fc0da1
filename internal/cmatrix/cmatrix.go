// Package cmatrix implements the dense complex-matrix operations D-Watch
// needs for subspace processing: construction, products, Hermitian
// transposes and a Hermitian eigendecomposition. The default solver is
// Householder tridiagonalization followed by implicit-shift QL/QR on the
// real tridiagonal (eigenqr.go) — a single O(n³) pass instead of the
// O(n³)-per-sweep cyclic Jacobi iteration, which remains available as
// EigenHermitianJacobi and as the automatic fallback if QL ever fails to
// converge. Matrices are small (antenna counts of 4-16), so both are
// fast; QR is ~4-5× faster per decomposition at MUSIC sizes.
package cmatrix

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"strings"
)

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("cmatrix: incompatible matrix shapes")

// Matrix is a dense, row-major complex matrix.
type Matrix struct {
	Rows, Cols int
	Data       []complex128 // len Rows*Cols, row-major
}

// New returns a zero matrix with the given shape.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("cmatrix: negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// FromRows builds a matrix from row slices. All rows must be the same
// length.
func FromRows(rows [][]complex128) (*Matrix, error) {
	if len(rows) == 0 {
		return New(0, 0), nil
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			return nil, fmt.Errorf("%w: row %d has %d cols, want %d", ErrShape, i, len(r), c)
		}
		copy(m.Data[i*c:(i+1)*c], r)
	}
	return m, nil
}

// RowViews returns one slice per row, each aliasing m.Data — the
// snapshot-rows form the spectrum workspaces read, without a copy.
func (m *Matrix) RowViews() [][]complex128 {
	rows := make([][]complex128, m.Rows)
	for i := range rows {
		rows[i] = m.Data[i*m.Cols : (i+1)*m.Cols : (i+1)*m.Cols]
	}
	return rows
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			fmt.Fprintf(&b, "%8.4f%+8.4fi ", real(m.At(i, j)), imag(m.At(i, j)))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Add returns m + n.
func (m *Matrix) Add(n *Matrix) (*Matrix, error) {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return nil, fmt.Errorf("%w: add %dx%d and %dx%d", ErrShape, m.Rows, m.Cols, n.Rows, n.Cols)
	}
	out := New(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = m.Data[i] + n.Data[i]
	}
	return out, nil
}

// Sub returns m - n.
func (m *Matrix) Sub(n *Matrix) (*Matrix, error) {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return nil, fmt.Errorf("%w: sub %dx%d and %dx%d", ErrShape, m.Rows, m.Cols, n.Rows, n.Cols)
	}
	out := New(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = m.Data[i] - n.Data[i]
	}
	return out, nil
}

// Scale returns s·m.
func (m *Matrix) Scale(s complex128) *Matrix {
	out := New(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = s * m.Data[i]
	}
	return out
}

// Mul returns the matrix product m·n.
func (m *Matrix) Mul(n *Matrix) (*Matrix, error) {
	if m.Cols != n.Rows {
		return nil, fmt.Errorf("%w: mul %dx%d by %dx%d", ErrShape, m.Rows, m.Cols, n.Rows, n.Cols)
	}
	out := New(m.Rows, n.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			row := n.Data[k*n.Cols : (k+1)*n.Cols]
			outRow := out.Data[i*n.Cols : (i+1)*n.Cols]
			for j, v := range row {
				outRow[j] += a * v
			}
		}
	}
	return out, nil
}

// ConjT returns the Hermitian (conjugate) transpose of m.
func (m *Matrix) ConjT() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, cmplx.Conj(m.At(i, j)))
		}
	}
	return out
}

// MulVec returns the matrix-vector product m·v.
func (m *Matrix) MulVec(v []complex128) ([]complex128, error) {
	if m.Cols != len(v) {
		return nil, fmt.Errorf("%w: mulvec %dx%d by %d", ErrShape, m.Rows, m.Cols, len(v))
	}
	out := make([]complex128, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var s complex128
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, a := range row {
			s += a * v[j]
		}
		out[i] = s
	}
	return out, nil
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []complex128 {
	out := make([]complex128, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.At(i, j)
	}
	return out
}

// OuterAdd accumulates the rank-1 update m += s · v·vᴴ. The matrix must
// be square with dimension len(v).
func (m *Matrix) OuterAdd(v []complex128, s float64) error {
	if m.Rows != len(v) || m.Cols != len(v) {
		return fmt.Errorf("%w: outer %dx%d with vec %d", ErrShape, m.Rows, m.Cols, len(v))
	}
	// Hoist s·vᵢ per row and walk the row slice directly: identical
	// arithmetic ((s·vᵢ)·conj(vⱼ), same association) without the
	// per-element index math — this is the correlation accumulator's
	// inner loop.
	for i := range v {
		sv := complex(s, 0) * v[i]
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, vj := range v {
			row[j] += sv * cmplx.Conj(vj)
		}
	}
	return nil
}

// FrobNorm returns the Frobenius norm of m.
func (m *Matrix) FrobNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}

// IsHermitian reports whether m equals its conjugate transpose within tol.
func (m *Matrix) IsHermitian(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i; j < m.Cols; j++ {
			if cmplx.Abs(m.At(i, j)-cmplx.Conj(m.At(j, i))) > tol {
				return false
			}
		}
	}
	return true
}

// VecDot returns the Hermitian inner product aᴴ·b.
func VecDot(a, b []complex128) complex128 {
	var s complex128
	for i := range a {
		s += cmplx.Conj(a[i]) * b[i]
	}
	return s
}

// VecNorm returns the Euclidean norm of v.
func VecNorm(v []complex128) float64 {
	var s float64
	for _, x := range v {
		s += real(x)*real(x) + imag(x)*imag(x)
	}
	return math.Sqrt(s)
}

// Eigen holds the result of a Hermitian eigendecomposition: real
// eigenvalues sorted descending and the matching orthonormal
// eigenvectors as columns of Vectors.
type Eigen struct {
	Values  []float64
	Vectors *Matrix // column j is the eigenvector for Values[j]
}

// ErrNotHermitian is returned by EigenHermitian for non-Hermitian input.
var ErrNotHermitian = errors.New("cmatrix: matrix is not Hermitian")

// ErrNoConverge is returned when the eigensolver iteration budget is
// exhausted before the off-diagonal mass drops below tolerance.
var ErrNoConverge = errors.New("cmatrix: eigendecomposition did not converge")

// EigenHermitian computes the eigendecomposition of a Hermitian matrix.
// Eigenvalues are returned in descending order — the convention subspace
// methods want (signal eigenvectors first). The solver is tridiagonal
// QL/QR with a cyclic-Jacobi fallback; see EigenWorkspace.EigenHermitian.
func EigenHermitian(a *Matrix) (*Eigen, error) {
	var ws EigenWorkspace
	return ws.EigenHermitian(a)
}

// EigenHermitianQR is EigenHermitian restricted to the tridiagonal
// QL/QR solver: no Jacobi fallback, ErrNoConverge on failure.
func EigenHermitianQR(a *Matrix) (*Eigen, error) {
	var ws EigenWorkspace
	return ws.EigenHermitianQR(a)
}

// EigenHermitianJacobi is EigenHermitian restricted to the classical
// cyclic complex Jacobi solver.
func EigenHermitianJacobi(a *Matrix) (*Eigen, error) {
	var ws EigenWorkspace
	return ws.EigenHermitianJacobi(a)
}

// Solver selects the Hermitian eigendecomposition backend of
// EigenWorkspace.Decompose.
type Solver int

const (
	// SolverAuto runs tridiagonal QL/QR, falling back to cyclic Jacobi
	// if the QL iteration budget is ever exhausted.
	SolverAuto Solver = iota
	// SolverQR runs only tridiagonal QL/QR; non-convergence is an error.
	SolverQR
	// SolverJacobi runs only the cyclic complex Jacobi sweep.
	SolverJacobi
)

func (s Solver) String() string {
	switch s {
	case SolverAuto:
		return "auto"
	case SolverQR:
		return "qr"
	case SolverJacobi:
		return "jacobi"
	default:
		return fmt.Sprintf("Solver(%d)", int(s))
	}
}

// EigenWorkspace holds the eigensolver scratch (Householder/QL vectors
// and the Jacobi matrices) so repeated eigendecompositions of same-sized
// inputs allocate nothing beyond the destination Eigen. The zero value
// is ready to use; a workspace is not safe for concurrent use.
type EigenWorkspace struct {
	w, v   *Matrix
	vals   []float64
	idx    []int
	d, e   []float64    // tridiagonal diagonal / sub-diagonal (QL path)
	hv, hp []complex128 // Householder reflector and p-vector scratch
}

// prepare validates a, sizes the scratch, copies a into ws.w with exact
// Hermitian symmetry forced (so rounding cannot accumulate) and resets
// ws.v to the identity. Both solver paths start from this state.
func (ws *EigenWorkspace) prepare(a *Matrix) (int, error) {
	if a.Rows != a.Cols {
		return 0, fmt.Errorf("%w: %dx%d", ErrNotHermitian, a.Rows, a.Cols)
	}
	n := a.Rows
	if !a.IsHermitian(1e-8 * (1 + a.FrobNorm())) {
		return 0, ErrNotHermitian
	}
	if ws.w == nil || ws.w.Rows != n {
		ws.w = New(n, n)
		ws.v = New(n, n)
		ws.vals = make([]float64, n)
		ws.idx = make([]int, n)
		ws.d = make([]float64, n)
		ws.e = make([]float64, n)
		ws.hv = make([]complex128, n)
		ws.hp = make([]complex128, n)
	}
	w, v := ws.w, ws.v
	copy(w.Data, a.Data)
	for i := 0; i < n; i++ {
		w.Set(i, i, complex(real(w.At(i, i)), 0))
		for j := i + 1; j < n; j++ {
			avg := (w.At(i, j) + cmplx.Conj(w.At(j, i))) / 2
			w.Set(i, j, avg)
			w.Set(j, i, cmplx.Conj(avg))
		}
	}
	for i := range v.Data {
		v.Data[i] = 0
	}
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}
	return n, nil
}

// Decompose writes the eigendecomposition of a into dst, reusing dst's
// storage when it already has a's size, so a caller that keeps one
// destination per workspace decomposes with zero allocation. dst is
// owned by the caller; on error its contents are unspecified.
//
// SolverAuto is Householder tridiagonalization + implicit-shift QL
// (eigenqr.go). If the QL iteration budget is ever exhausted — not
// observed on Hermitian input, but the guard exists — the cyclic Jacobi
// solver runs as a fallback, so callers keep Jacobi's robustness with
// QR's speed.
func (ws *EigenWorkspace) Decompose(dst *Eigen, a *Matrix, s Solver) error {
	n, err := ws.prepare(a)
	if err != nil {
		return err
	}
	if len(dst.Values) != n || dst.Vectors == nil || dst.Vectors.Rows != n || dst.Vectors.Cols != n {
		dst.Values = make([]float64, n)
		dst.Vectors = New(n, n)
	}
	switch s {
	case SolverJacobi:
		return ws.eigenJacobi(dst, n)
	case SolverQR:
		return ws.eigenQL(dst, n)
	}
	if err := ws.eigenQL(dst, n); err == nil {
		return nil
	}
	// eigenQL destroyed ws.w; rebuild it for the fallback.
	if _, err := ws.prepare(a); err != nil {
		return err
	}
	return ws.eigenJacobi(dst, n)
}

// decompose is Decompose into a fresh Eigen — the owned-result form
// behind the EigenHermitian* entry points.
func (ws *EigenWorkspace) decompose(a *Matrix, s Solver) (*Eigen, error) {
	eg := &Eigen{}
	if err := ws.Decompose(eg, a, s); err != nil {
		return nil, err
	}
	return eg, nil
}

// EigenHermitian is EigenHermitian reusing the workspace's scratch. The
// returned Eigen owns its memory and stays valid across further calls.
func (ws *EigenWorkspace) EigenHermitian(a *Matrix) (*Eigen, error) {
	return ws.decompose(a, SolverAuto)
}

// EigenHermitianQR runs only the tridiagonal QL/QR solver, returning
// ErrNoConverge instead of falling back. It exists so the solvers can be
// A/B-compared (tests, dwatch-replay -eigensolver).
func (ws *EigenWorkspace) EigenHermitianQR(a *Matrix) (*Eigen, error) {
	return ws.decompose(a, SolverQR)
}

// EigenHermitianJacobi runs only the cyclic complex Jacobi solver.
func (ws *EigenWorkspace) EigenHermitianJacobi(a *Matrix) (*Eigen, error) {
	return ws.decompose(a, SolverJacobi)
}

// eigenJacobi diagonalizes the prepared ws.w with cyclic complex Jacobi
// rotations, accumulating eigenvectors in ws.v, and sorts the result
// into dst.
func (ws *EigenWorkspace) eigenJacobi(dst *Eigen, n int) error {
	w, v := ws.w, ws.v
	const maxSweeps = 100
	tol := 1e-14 * (1 + w.FrobNorm())
	for sweep := 0; sweep < maxSweeps; sweep++ {
		if offDiagWithin(w, tol) {
			ws.finishEigen(dst, w, v)
			return nil
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if cmplx.Abs(apq) <= tol/float64(n) {
					continue
				}
				rotate(w, v, p, q)
			}
		}
	}
	if offDiagWithin(w, 1e-8*(1+w.FrobNorm())) {
		// Converged to a looser but still usable tolerance.
		ws.finishEigen(dst, w, v)
		return nil
	}
	return ErrNoConverge
}

// rotate applies the complex Jacobi rotation annihilating w[p][q],
// updating the accumulated eigenvector matrix v.
func rotate(w, v *Matrix, p, q int) {
	n := w.Rows
	app := real(w.At(p, p))
	aqq := real(w.At(q, q))
	apq := w.At(p, q)
	absApq := cmplx.Abs(apq)
	if absApq == 0 {
		return
	}
	// Phase that makes the off-diagonal element real: apq = |apq|·e^{iφ}.
	phase := apq / complex(absApq, 0)

	// Now solve the real 2x2 symmetric rotation for [[app, |apq|],[|apq|, aqq]].
	theta := (aqq - app) / (2 * absApq)
	var t float64
	if theta >= 0 {
		t = 1 / (theta + math.Sqrt(1+theta*theta))
	} else {
		t = -1 / (-theta + math.Sqrt(1+theta*theta))
	}
	c := 1 / math.Sqrt(1+t*t)
	s := t * c

	// Complex rotation: column p gets c, column q gets s·phase terms.
	cs := complex(c, 0)
	sn := complex(s, 0) * phase

	for k := 0; k < n; k++ {
		akp := w.At(k, p)
		akq := w.At(k, q)
		w.Set(k, p, cs*akp-cmplx.Conj(sn)*akq)
		w.Set(k, q, sn*akp+cs*akq)
	}
	for k := 0; k < n; k++ {
		apk := w.At(p, k)
		aqk := w.At(q, k)
		w.Set(p, k, cs*apk-sn*aqk)
		w.Set(q, k, cmplx.Conj(sn)*apk+cs*aqk)
	}
	// Clean up: the (p,q) entry is now analytically zero, diagonal real.
	w.Set(p, q, 0)
	w.Set(q, p, 0)
	w.Set(p, p, complex(real(w.At(p, p)), 0))
	w.Set(q, q, complex(real(w.At(q, q)), 0))

	for k := 0; k < n; k++ {
		vkp := v.At(k, p)
		vkq := v.At(k, q)
		v.Set(k, p, cs*vkp-cmplx.Conj(sn)*vkq)
		v.Set(k, q, sn*vkp+cs*vkq)
	}
}

// offDiagWithin reports whether the off-diagonal Frobenius mass of m is
// at most tol, returning as soon as the accumulated squared sum exceeds
// tol² so unconverged Jacobi sweeps stop scanning early.
func offDiagWithin(m *Matrix, tol float64) bool {
	limit := tol * tol
	var s float64
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if i == j {
				continue
			}
			v := m.At(i, j)
			s += real(v)*real(v) + imag(v)*imag(v)
			if s > limit {
				return false
			}
		}
	}
	return true
}

func (ws *EigenWorkspace) finishEigen(dst *Eigen, w, v *Matrix) {
	n := w.Rows
	for i := 0; i < n; i++ {
		ws.vals[i] = real(w.At(i, i))
	}
	ws.finishEigenVals(dst, ws.vals, v)
}

// finishEigenVals sorts (vals, columns of v) descending by eigenvalue
// into dst (already sized n), so results never alias workspace scratch.
func (ws *EigenWorkspace) finishEigenVals(dst *Eigen, vals []float64, v *Matrix) {
	n := v.Rows
	idx := ws.idx
	for i := 0; i < n; i++ {
		idx[i] = i
	}
	// Sort descending by eigenvalue (insertion sort; n is tiny).
	for i := 1; i < n; i++ {
		for j := i; j > 0 && vals[idx[j]] > vals[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	for j, k := range idx {
		dst.Values[j] = vals[k]
		for i := 0; i < n; i++ {
			dst.Vectors.Set(i, j, v.At(i, k))
		}
	}
}
