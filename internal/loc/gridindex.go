// Grid-to-angle index: the precomputed half of the fusion hot path.
//
// Evaluating the Eq. 15 likelihood at a grid cell needs the AoA under
// which each reader's array sees that cell — vector math plus an acos
// per (cell, view). Both are pure functions of the array geometry, the
// search grid, and the angle-grid size, all fixed for a session.
// GridIndex computes the cell→angle-bin mapping once; the grid search
// then reduces to Πᵢ (ε + Dropᵢ[binᵢ[cell]]), a pure table lookup.
//
// The index also records, per blockSide×blockSide block of cells, the
// lowest and highest angle bin the block's cells map to. With every
// drop finite and ≥ 0, Πᵢ (ε + max of Dropᵢ over that bin range) is at
// least the likelihood of every cell in the block, bit for bit:
// rounding is monotone and every factor is positive. So the search
// evaluates the best-bound block first, and after it only the blocks
// whose bound reaches the best likelihood found so far.
package loc

import (
	"fmt"
	"math"
	"math/bits"

	"dwatch/internal/rf"
)

// blockSide is the side, in cells, of the blocks the bounded search
// prunes. On the library preset's 5 cm grid 16 evaluated fewer cells
// per fix than 8 (more bounds to take) and 32 (looser bounds).
const blockSide = 16

// GridIndex maps every cell of one search Grid to the rf.AngleGrid bin
// one array sees it under. Immutable after construction and safe to
// share across goroutines.
type GridIndex struct {
	NX, NY int // grid cells, matching Grid.Cells()
	Bins   int // angle-grid size the entries index into
	bins   []int32
	// bx is the number of blocks per block row; lo[b] and hi[b] are
	// the lowest and highest bin of block b's cells (row-major blocks).
	bx     int
	lo, hi []int32
}

// NewGridIndex precomputes the cell→angle-bin table for an array over a
// grid, for views scanned on rf.AngleGrid(angleBins). Each entry is
// rf.GridBin(arr.AngleTo(cell), angleBins) — exactly the lookup
// View.DropAt performs — so indexed likelihoods are bit-identical to
// the uncached path.
func NewGridIndex(arr *rf.Array, grid Grid, angleBins int) (*GridIndex, error) {
	if err := grid.Validate(); err != nil {
		return nil, err
	}
	if angleBins < 1 {
		return nil, fmt.Errorf("loc: angle grid size %d", angleBins)
	}
	nx, ny := grid.Cells()
	bx, by := ceilDiv(nx, blockSide), ceilDiv(ny, blockSide)
	g := &GridIndex{
		NX: nx, NY: ny, Bins: angleBins,
		bins: make([]int32, nx*ny),
		bx:   bx,
		lo:   make([]int32, bx*by),
		hi:   make([]int32, bx*by),
	}
	for b := range g.lo {
		g.lo[b], g.hi[b] = math.MaxInt32, -1
	}
	k := 0
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			bin := int32(rf.GridBin(arr.AngleTo(grid.CellAt(ix, iy)), angleBins))
			g.bins[k] = bin
			b := iy/blockSide*bx + ix/blockSide
			g.lo[b] = min(g.lo[b], bin)
			g.hi[b] = max(g.hi[b], bin)
			k++
		}
	}
	return g, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Bin returns the angle bin of cell (ix, iy).
func (g *GridIndex) Bin(ix, iy int) int { return int(g.bins[iy*g.NX+ix]) }

// checkIndexes validates that every view has a matching index table for
// this grid.
func checkIndexes(views []*View, indexes []*GridIndex, grid Grid) (nx, ny int, err error) {
	if len(indexes) != len(views) {
		return 0, 0, fmt.Errorf("loc: %d index tables for %d views", len(indexes), len(views))
	}
	nx, ny = grid.Cells()
	for i, g := range indexes {
		if g == nil {
			return 0, 0, fmt.Errorf("loc: nil index table for view %d", i)
		}
		if g.NX != nx || g.NY != ny {
			return 0, 0, fmt.Errorf("loc: index table %d is %dx%d, grid is %dx%d", i, g.NX, g.NY, nx, ny)
		}
		if g.Bins != len(views[i].Angles) {
			return 0, 0, fmt.Errorf("loc: index table %d has %d angle bins, view has %d", i, g.Bins, len(views[i].Angles))
		}
	}
	return nx, ny, nil
}

// Workspace is the reusable scratch of the blocked grid search: a
// range-maximum table per view, one bound per block and one block
// row's likelihoods. It grows to the largest search it has run, after
// which LocalizeIndexed allocates nothing. Not safe for concurrent
// use; give each goroutine its own.
type Workspace struct {
	tables [][]float64
	bounds []float64
	row    [blockSide]float64
	cells  int // cells the last blocked search evaluated
}

// LocalizeIndexed is Localize with the grid search driven by
// precomputed GridIndex tables (one per view, built for the same grid
// and each view's angle-grid size). When every drop is finite and ≥ 0
// (BuildView's views are) the search evaluates only the blocks whose
// likelihood bound reaches the best cell found; otherwise it walks
// every cell. Either way it returns the cell the walk returns (the
// lowest-index cell of maximum likelihood) with the same likelihood
// bits, and hill-climb refinement still evaluates exact angles
// off-grid. Results are bit-identical to Localize.
func (w *Workspace) LocalizeIndexed(views []*View, indexes []*GridIndex, grid Grid, opts Options) (Result, error) {
	if len(views) == 0 {
		return Result{}, ErrNoViews
	}
	if err := grid.Validate(); err != nil {
		return Result{}, err
	}
	nx, ny, err := checkIndexes(views, indexes, grid)
	if err != nil {
		return Result{}, err
	}
	opts = opts.withDefaults()

	bestK, bestL, ok := w.search(views, indexes, nx, ny)
	if !ok {
		bestK, bestL = walkIndexed(views, indexes)
	}
	best := Result{Pos: grid.CellAt(bestK%nx, bestK/nx), Likelihood: bestL}
	best = hillClimb(views, grid, best, opts.HillClimbIters)
	max := theoreticalMax(len(views))
	best.Confidence = best.Likelihood / max
	if best.Confidence < opts.MinPeak {
		return Result{}, ErrNotCovered
	}
	return best, nil
}

// walkIndexed evaluates every cell in index order and returns the
// first of maximum likelihood: the reference the blocked search
// reproduces, and the path for views that fail its precondition.
func walkIndexed(views []*View, indexes []*GridIndex) (bestK int, bestL float64) {
	bestK, bestL = 0, -1.0
	for k := range indexes[0].bins {
		l := 1.0
		for v, g := range indexes {
			l *= epsilon + views[v].Drop[g.bins[k]]
		}
		if l > bestL {
			bestK, bestL = k, l
		}
	}
	return bestK, bestL
}

// search is the blocked grid search. It reports ok=false, having
// evaluated nothing, when a view's drops are not all finite and ≥ 0 or
// do not cover its angle bins: the block bound is then not exact.
func (w *Workspace) search(views []*View, indexes []*GridIndex, nx, ny int) (bestK int, bestL float64, ok bool) {
	for len(w.tables) < len(views) {
		w.tables = append(w.tables, nil)
	}
	for v, view := range views {
		if len(view.Drop) != indexes[v].Bins || !w.buildTable(v, view.Drop) {
			return 0, 0, false
		}
	}
	// Block bounds, multiplied in view order like the cell product.
	nb := len(indexes[0].lo)
	if cap(w.bounds) < nb {
		w.bounds = make([]float64, nb)
	}
	bounds := w.bounds[:nb]
	first := 0
	for b := range bounds {
		l := 1.0
		for v, g := range indexes {
			l *= epsilon + rangeMax(w.tables[v], len(views[v].Drop), int(g.lo[b]), int(g.hi[b]))
		}
		bounds[b] = l
		if l > bounds[first] {
			first = b
		}
	}
	w.cells = 0
	bestK, bestL = w.evalBlock(views, indexes, first, nx, ny, -1, -1)
	for b, bound := range bounds {
		// A bound equal to the best may still hide a tie at a lower
		// cell index, so only a strictly lower bound prunes.
		if b != first && bound >= bestL {
			bestK, bestL = w.evalBlock(views, indexes, b, nx, ny, bestK, bestL)
		}
	}
	return bestK, bestL, true
}

// buildTable fills view v's sparse range-maximum table over drop:
// level j holds the maximum of every run of 2^j consecutive drops,
// level 0 the drops themselves. It reports false on a drop that is
// NaN, negative or infinite.
func (w *Workspace) buildTable(v int, drop []float64) bool {
	n := len(drop)
	levels := bits.Len(uint(n))
	if cap(w.tables[v]) < levels*n {
		w.tables[v] = make([]float64, levels*n)
	}
	t := w.tables[v][:levels*n]
	for i, d := range drop {
		if !(d >= 0 && d <= math.MaxFloat64) {
			return false
		}
		t[i] = d
	}
	for j := 1; j < levels; j++ {
		half := 1 << (j - 1)
		prev, cur := t[(j-1)*n:j*n], t[j*n:(j+1)*n]
		for i := 0; i+2*half <= n; i++ {
			cur[i] = max(prev[i], prev[i+half])
		}
	}
	return true
}

// rangeMax returns the maximum of drops lo..hi (inclusive) from a
// table buildTable filled for n drops.
func rangeMax(t []float64, n, lo, hi int) float64 {
	j := bits.Len(uint(hi-lo+1)) - 1
	return max(t[j*n+lo], t[j*n+hi-(1<<j)+1])
}

// evalBlock evaluates every cell of block b, one block row at a time
// and view-major within the row: cell k's likelihood is still
// ((1·f₀)·f₁)·f₂… in view order, the walk's product. Among equal
// likelihoods the lowest cell index wins, as the walk's strict > has
// it.
func (w *Workspace) evalBlock(views []*View, indexes []*GridIndex, b, nx, ny, bestK int, bestL float64) (int, float64) {
	bx := indexes[0].bx
	x0, y0 := b%bx*blockSide, b/bx*blockSide
	x1, y1 := min(x0+blockSide, nx), min(y0+blockSide, ny)
	row := w.row[:x1-x0]
	w.cells += len(row) * (y1 - y0)
	for iy := y0; iy < y1; iy++ {
		base := iy*nx + x0
		for i := range row {
			row[i] = 1
		}
		for v, g := range indexes {
			drop := views[v].Drop
			for i, bin := range g.bins[base : base+len(row)] {
				row[i] *= epsilon + drop[bin]
			}
		}
		for i, l := range row {
			if l > bestL || l == bestL && base+i < bestK {
				bestK, bestL = base+i, l
			}
		}
	}
	return bestK, bestL
}

// LocalizeMultiIndexed is LocalizeMulti with the likelihood field
// filled by table walk. Results are bit-identical to LocalizeMulti.
func LocalizeMultiIndexed(views []*View, indexes []*GridIndex, grid Grid, maxTargets int, minSep float64, opts Options) ([]Result, error) {
	if len(views) == 0 {
		return nil, ErrNoViews
	}
	if err := grid.Validate(); err != nil {
		return nil, err
	}
	if maxTargets <= 0 {
		return nil, nil
	}
	nx, ny, err := checkIndexes(views, indexes, grid)
	if err != nil {
		return nil, err
	}
	field := make([]float64, nx*ny)
	for k := range field {
		l := 1.0
		for v, g := range indexes {
			l *= epsilon + views[v].Drop[g.bins[k]]
		}
		field[k] = l
	}
	return extractTargets(views, grid, field, nx, ny, maxTargets, minSep, opts), nil
}
