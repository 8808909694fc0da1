// Steering tables: the precomputed half of the P-MUSIC hot path.
//
// Every spectrum scan evaluates the same steering vectors a(θ) and
// beamforming weights e^{+jω(m,θ)} at the same grid angles — all of it
// a pure function of the array geometry and the grid size, which never
// change during a session. SteeringTable computes them once into flat
// row-major matrices so the per-spectrum inner loops are pure table
// walks with zero cmplx.Exp calls and zero allocation per angle. Tables
// are immutable after construction and safe to share across goroutines;
// SteeringTableFor memoizes them process-wide by array geometry.
package rf

import (
	"fmt"
	"math/cmplx"
	"sync"

	"dwatch/internal/geom"
)

// SteeringTable holds the steering vectors and conjugate beamforming
// weights of one array over one angle grid. Steering rows (and their
// conjugates, which the MUSIC scan's aᴴ·Uₙ products read) are truncated
// to the subarray length the spatially smoothed MUSIC scan needs;
// weight rows span the full array for the Eq. 13 beamformer. The table
// is read-only after construction.
type SteeringTable struct {
	Elements int       // full array size M (weight row length)
	Sub      int       // subarray length L (steering row length)
	Angles   []float64 // AngleGrid(n); shared — callers must not mutate

	steer   []complex128 // len(Angles)×Sub, row-major: a(θᵢ) truncated to L
	conj    []complex128 // len(Angles)×Sub, row-major: conj(a(θᵢ))
	weights []complex128 // len(Angles)×M, row-major: e^{+jω(m,θᵢ)}
}

// NewSteeringTable precomputes the table for an array, an angle-grid
// size, and a subarray length. Entries are built with the exact same
// expressions as Array.SteeringSub and the Eq. 13 weights, so consumers
// are bit-identical to the uncached per-angle path.
func NewSteeringTable(arr *Array, gridSize, sub int) (*SteeringTable, error) {
	if sub < 1 || sub > arr.Elements {
		return nil, fmt.Errorf("%w: subarray length %d for %d elements", ErrBadArray, sub, arr.Elements)
	}
	angles := AngleGrid(gridSize)
	t := &SteeringTable{
		Elements: arr.Elements,
		Sub:      sub,
		Angles:   angles,
		steer:    make([]complex128, len(angles)*sub),
		conj:     make([]complex128, len(angles)*sub),
		weights:  make([]complex128, len(angles)*arr.Elements),
	}
	for i, th := range angles {
		sr := t.steer[i*sub : (i+1)*sub]
		cr := t.conj[i*sub : (i+1)*sub]
		for m := range sr {
			sr[m] = cmplx.Exp(complex(0, -arr.Omega(m, th)))
			cr[m] = cmplx.Conj(sr[m])
		}
		wr := t.weights[i*arr.Elements : (i+1)*arr.Elements]
		for m := range wr {
			wr[m] = cmplx.Exp(complex(0, arr.Omega(m, th)))
		}
	}
	return t, nil
}

// Len returns the number of grid angles.
func (t *SteeringTable) Len() int { return len(t.Angles) }

// Steering returns the subarray steering vector at grid angle i —
// identical to Array.SteeringSub(Angles[i], Sub). The slice aliases the
// table and must not be modified.
func (t *SteeringTable) Steering(i int) []complex128 {
	return t.steer[i*t.Sub : (i+1)*t.Sub]
}

// ConjSteering returns conj(Steering(i)), stored once so the MUSIC
// scan's aᴴ·Uₙ inner products multiply without conjugating per term.
// The slice aliases the table and must not be modified.
func (t *SteeringTable) ConjSteering(i int) []complex128 {
	return t.conj[i*t.Sub : (i+1)*t.Sub]
}

// Weights returns the full-array beamforming weights e^{+jω(m,θᵢ)} at
// grid angle i. The slice aliases the table and must not be modified.
func (t *SteeringTable) Weights(i int) []complex128 {
	return t.weights[i*t.Elements : (i+1)*t.Elements]
}

// tableKey identifies a steering table by array geometry (by value, so
// distinct Array instances with equal geometry share one table) plus
// the grid and subarray sizes.
type tableKey struct {
	origin, axis    geom.Point
	elements        int
	spacing, lambda float64
	gridSize, sub   int
}

var tableCache sync.Map // tableKey → *SteeringTable

// SteeringTableFor returns the memoized steering table for the given
// array geometry, grid size, and subarray length, computing it on first
// use. Concurrent callers may race to build the first table; one copy
// wins and the rest are discarded, so the returned table is always safe
// to share read-only across goroutines.
func SteeringTableFor(arr *Array, gridSize, sub int) (*SteeringTable, error) {
	key := tableKey{
		origin: arr.Origin, axis: arr.Axis,
		elements: arr.Elements, spacing: arr.Spacing, lambda: arr.Lambda,
		gridSize: gridSize, sub: sub,
	}
	if v, ok := tableCache.Load(key); ok {
		return v.(*SteeringTable), nil
	}
	t, err := NewSteeringTable(arr, gridSize, sub)
	if err != nil {
		return nil, err
	}
	v, _ := tableCache.LoadOrStore(key, t)
	return v.(*SteeringTable), nil
}
