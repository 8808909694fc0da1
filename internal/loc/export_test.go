package loc

// Hooks for the external lattice test (package loc_test), which builds
// its views through dwatch.System and so cannot live in package loc.

// Search runs the blocked grid search alone and reports the cell, its
// likelihood, whether the precondition held, and the cells evaluated.
func (w *Workspace) Search(views []*View, indexes []*GridIndex, grid Grid) (k int, l float64, ok bool, cells int) {
	nx, ny := grid.Cells()
	k, l, ok = w.search(views, indexes, nx, ny)
	return k, l, ok, w.cells
}

// WalkIndexed is the reference walk over every cell.
var WalkIndexed = walkIndexed
