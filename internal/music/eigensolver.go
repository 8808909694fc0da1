package music

import (
	"fmt"

	"dwatch/internal/cmatrix"
)

// Eigensolver selects the Hermitian eigendecomposition backend for the
// subspace stage. The solvers agree on eigenvalues to ~1e-12·‖R‖ and on
// the noise-subspace projector Uₙ·Uₙᴴ (the quantity the pseudo-spectrum
// depends on) wherever the signal/noise eigenvalue gap exists;
// individual eigenvectors differ by per-column phase. The selector
// exists for A/B comparison (dwatch-replay -eigensolver) — production
// uses the default. It is cmatrix's backend selector, passed through.
type Eigensolver = cmatrix.Solver

const (
	// EigenAuto (the default) runs tridiagonal QL/QR with an automatic
	// Jacobi fallback on non-convergence — QR speed, Jacobi robustness.
	EigenAuto = cmatrix.SolverAuto
	// EigenQR runs only Householder tridiagonalization + implicit-shift
	// QL/QR; non-convergence is an error.
	EigenQR = cmatrix.SolverQR
	// EigenJacobi runs only the classical cyclic complex Jacobi sweep —
	// the pre-QR solver, retained as the A/B reference.
	EigenJacobi = cmatrix.SolverJacobi
)

// ParseEigensolver maps the flag spellings to a solver; "" and "auto"
// both select the default.
func ParseEigensolver(s string) (Eigensolver, error) {
	switch s {
	case "", "auto":
		return EigenAuto, nil
	case "qr", "ql":
		return EigenQR, nil
	case "jacobi":
		return EigenJacobi, nil
	default:
		return 0, fmt.Errorf("music: unknown eigensolver %q (want auto, qr or jacobi)", s)
	}
}
