package cmatrix

import (
	"math"
	"math/cmplx"
)

// The tridiagonal QL/QR Hermitian eigensolver: the hot-path replacement
// for the cyclic Jacobi sweep. Two stages, both operating in the
// workspace with zero steady-state allocations:
//
//  1. Householder tridiagonalization A = Q·T·Qᴴ — n-2 complex unitary
//     reflectors reduce the Hermitian matrix to tridiagonal form, with a
//     final diagonal phase scaling folded into Q so the sub-diagonal of
//     T is real and non-negative.
//  2. Implicit-shift QL on the real tridiagonal (d, e) with Wilkinson
//     shifts; the real Givens rotations accumulate into the complex Q,
//     whose columns become the eigenvectors.
//
// Total cost is one O(n³) pass versus Jacobi's O(n³) per sweep (5-8
// sweeps at MUSIC sizes). Eigenvalues agree with Jacobi to ~1e-12·‖A‖;
// eigenvectors differ by per-column phase (and by rotations within
// degenerate eigenspaces), so the invariant cross-solver contract is
// subspace equality — Uₙ·Uₙᴴ — not vector identity. eigenqr_test.go pins
// exactly that.

// eigenQL diagonalizes the prepared ws.w (see EigenWorkspace.prepare),
// leaving eigenvalues in ws.d and eigenvectors in the columns of ws.v,
// then sorts them into dst. ws.w is destroyed. Returns ErrNoConverge if
// any eigenvalue needs more than 50 QL iterations, which does not
// happen for Hermitian input in practice; SolverAuto falls back to
// Jacobi in that case.
func (ws *EigenWorkspace) eigenQL(dst *Eigen, n int) error {
	w, q := ws.w, ws.v
	d, e := ws.d[:n], ws.e[:n]
	hv, hp := ws.hv[:n], ws.hp[:n]

	// Stage 1: Householder reduction to Hermitian tridiagonal form.
	// Column k of the trailing submatrix is reflected onto a multiple of
	// e₁; the reflector H = I − τ·v·vᴴ is applied two-sided via the
	// standard Hermitian rank-2 update, and accumulated into q.
	for k := 0; k < n-2; k++ {
		var xnorm2 float64
		for i := k + 1; i < n; i++ {
			x := w.At(i, k)
			xnorm2 += real(x)*real(x) + imag(x)*imag(x)
		}
		if xnorm2 == 0 {
			continue // column already tridiagonal
		}
		xnorm := math.Sqrt(xnorm2)
		x0 := w.At(k+1, k)
		phase := complex(1, 0)
		if x0 != 0 {
			phase = x0 / complex(cmplx.Abs(x0), 0)
		}
		// alpha carries x0's phase so v = x − alpha·e₁ never cancels.
		alpha := -phase * complex(xnorm, 0)
		for i := k + 1; i < n; i++ {
			hv[i] = w.At(i, k)
		}
		hv[k+1] = x0 - alpha
		var vnorm2 float64
		for i := k + 1; i < n; i++ {
			vnorm2 += real(hv[i])*real(hv[i]) + imag(hv[i])*imag(hv[i])
		}
		if vnorm2 == 0 {
			continue
		}
		tau := 2 / vnorm2

		// p = τ·B·v over the trailing submatrix B = w[k+1:, k+1:].
		for i := k + 1; i < n; i++ {
			var s complex128
			row := w.Data[i*n : (i+1)*n]
			for j := k + 1; j < n; j++ {
				s += row[j] * hv[j]
			}
			hp[i] = complex(tau, 0) * s
		}
		// q_vec = p − (τ/2)(vᴴp)·v, then B ← B − v·q_vecᴴ − q_vec·vᴴ.
		var vhp complex128
		for i := k + 1; i < n; i++ {
			vhp += cmplx.Conj(hv[i]) * hp[i]
		}
		kc := complex(tau/2, 0) * vhp
		for i := k + 1; i < n; i++ {
			hp[i] -= kc * hv[i]
		}
		for i := k + 1; i < n; i++ {
			row := w.Data[i*n : (i+1)*n]
			for j := k + 1; j < n; j++ {
				row[j] -= hv[i]*cmplx.Conj(hp[j]) + hp[i]*cmplx.Conj(hv[j])
			}
		}
		w.Set(k+1, k, alpha)
		w.Set(k, k+1, cmplx.Conj(alpha))
		for i := k + 2; i < n; i++ {
			w.Set(i, k, 0)
			w.Set(k, i, 0)
		}
		// Accumulate Q ← Q·H (right-multiplying keeps A = Q·T·Qᴴ).
		for r := 0; r < n; r++ {
			row := q.Data[r*n : (r+1)*n]
			var s complex128
			for j := k + 1; j < n; j++ {
				s += row[j] * hv[j]
			}
			st := complex(tau, 0) * s
			for c := k + 1; c < n; c++ {
				row[c] -= st * cmplx.Conj(hv[c])
			}
		}
	}

	// Extract (d, e) and strip the sub-diagonal phases into Q: with
	// D = diag(p₀..p_{n−1}), p₀ = 1, p_{k+1} = p_k·phase(w[k+1,k]), the
	// matrix Dᴴ·T_complex·D is real tridiagonal and Q·D replaces Q.
	for i := 0; i < n; i++ {
		d[i] = real(w.At(i, i))
	}
	ph := complex(1, 0)
	for k := 0; k < n-1; k++ {
		ec := w.At(k+1, k)
		aec := cmplx.Abs(ec)
		e[k] = aec
		if aec != 0 {
			ph *= ec / complex(aec, 0)
		}
		if ph != 1 {
			for r := 0; r < n; r++ {
				q.Set(r, k+1, q.At(r, k+1)*ph)
			}
		}
	}
	e[n-1] = 0

	// Stage 2: implicit-shift QL with Wilkinson shifts on the real
	// tridiagonal, Givens rotations accumulated into the complex q.
	const maxIter = 50
	const eps = 2.220446049250313e-16
	for l := 0; l < n; l++ {
		iter := 0
		for {
			// Find the first negligible sub-diagonal at or after l.
			var m int
			for m = l; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= eps*dd {
					break
				}
			}
			if m == l {
				break // d[l] converged
			}
			iter++
			if iter > maxIter {
				return ErrNoConverge
			}
			// Wilkinson shift from the leading 2×2 of the block.
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			underflow := false
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					// Recover from rounding underflow and restart.
					d[i+1] -= p
					e[m] = 0
					underflow = true
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				cs, sn := complex(c, 0), complex(s, 0)
				for k := 0; k < n; k++ {
					row := q.Data[k*n:]
					f := row[i+1]
					row[i+1] = sn*row[i] + cs*f
					row[i] = cs*row[i] - sn*f
				}
			}
			if underflow {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}

	ws.finishEigenVals(dst, d, q)
	return nil
}
