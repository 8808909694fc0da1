// Package loc turns per-reader AoA-spectrum drops into target
// locations, implementing Section 4.3 of the D-Watch paper.
//
// Each reader i contributes ΔΩᵢ(θ): the drop in its P-MUSIC spectrum
// between the no-target baseline and the online measurement. A grid
// search maximizes the likelihood L(O) = Πᵢ ΔΩᵢ(θᵢ(O)) (Eq. 15), where
// θᵢ(O) is the angle from reader i's array to the candidate point O. A
// hill-climbing refinement then polishes the coarse grid estimate. The
// product form automatically rejects the "wrong angle" a blocked
// reflection path reports (Fig. 1(c)): an angle consistent at only one
// reader cannot accumulate likelihood at any single point.
//
// The package also provides explicit pairwise triangulation with
// outlier rejection (the paper's alternative formulation), multi-target
// extraction by non-maximum suppression, and a snapshot tracker with the
// mobility smoothing Section 8 describes.
package loc

import (
	"errors"
	"fmt"
	"math"

	"dwatch/internal/geom"
	"dwatch/internal/rf"
)

// ErrNoViews is returned when localization is attempted with no reader
// views.
var ErrNoViews = errors.New("loc: no reader views")

// ErrNotCovered is returned when no grid point accumulates enough
// likelihood — the target is in a deadzone (Section 8).
var ErrNotCovered = errors.New("loc: target not covered by any blocked path")

// View is one reader's evidence: its array and the ΔΩ drop spectrum
// over the angle grid, normalized so the strongest drop is ≈1.
type View struct {
	Array  *rf.Array
	Angles []float64 // scan grid, radians, ascending over [0, π]
	Drop   []float64 // ΔΩ(θ) ≥ 0
}

// DropAt returns the drop at the grid angle nearest to theta. The grid
// is the uniform rf.AngleGrid, so the lookup is O(1) via the shared
// rf.GridBin helper (the same indexing pmusic.Spectrum.PowerAt and
// GridIndex use).
func (v *View) DropAt(theta float64) float64 {
	n := len(v.Angles)
	if n == 0 {
		return 0
	}
	return v.Drop[rf.GridBin(theta, n)]
}

// MaxDrop returns the maximum drop in the view.
func (v *View) MaxDrop() float64 {
	var m float64
	for _, d := range v.Drop {
		if d > m {
			m = d
		}
	}
	return m
}

// Normalize scales the view's drops so the maximum is 1. Views with no
// drop are left unchanged.
func (v *View) Normalize() {
	m := v.MaxDrop()
	if m <= 0 {
		return
	}
	for i := range v.Drop {
		v.Drop[i] /= m
	}
}

// Grid is the rectangular search area.
type Grid struct {
	XMin, XMax, YMin, YMax float64
	Cell                   float64 // grid cell size in metres (paper: 0.05 m rooms, 0.02 m table)
	Z                      float64 // height of the search plane
}

// Validate checks the grid is well-formed.
func (g Grid) Validate() error {
	if g.XMax <= g.XMin || g.YMax <= g.YMin {
		return fmt.Errorf("loc: empty grid [%v,%v]x[%v,%v]", g.XMin, g.XMax, g.YMin, g.YMax)
	}
	if g.Cell <= 0 {
		return fmt.Errorf("loc: non-positive cell size %v", g.Cell)
	}
	return nil
}

// Contains reports whether p lies inside the grid (x-y only).
func (g Grid) Contains(p geom.Point) bool {
	return p.X >= g.XMin && p.X <= g.XMax && p.Y >= g.YMin && p.Y <= g.YMax
}

// Cells returns the number of search cells along x and y. Every grid
// walk (Localize, LocalizeMulti, heatmaps, GridIndex) derives its cell
// count here so cached and uncached paths visit identical points.
func (g Grid) Cells() (nx, ny int) {
	nx = int((g.XMax-g.XMin)/g.Cell) + 1
	ny = int((g.YMax-g.YMin)/g.Cell) + 1
	return nx, ny
}

// CellAt returns the centre of cell (ix, iy) at the search height.
func (g Grid) CellAt(ix, iy int) geom.Point {
	return geom.Pt(g.XMin+float64(ix)*g.Cell, g.YMin+float64(iy)*g.Cell, g.Z)
}

// epsilon keeps the likelihood product alive when one reader
// contributes nothing at a point (it may simply not cover that spot).
const epsilon = 0.02

// Likelihood evaluates Eq. 15 at point p: Πᵢ (ε + ΔΩᵢ(θᵢ(p))).
func Likelihood(views []*View, p geom.Point) float64 {
	l := 1.0
	for _, v := range views {
		l *= epsilon + v.DropAt(v.Array.AngleTo(p))
	}
	return l
}

// Options configures Localize.
type Options struct {
	// MinPeak is the minimum confidence (likelihood relative to the
	// two-reader-agreement reference) for a fix to count as covered;
	// 0 = 0.12 — high enough that two intersecting marginal (~0.3)
	// drops cannot fake a fix, low enough that one solid and one
	// partial agreement still count.
	MinPeak float64
	// HillClimbIters bounds the refinement; 0 = 50.
	HillClimbIters int
}

func (o Options) withDefaults() Options {
	if o.MinPeak == 0 {
		o.MinPeak = 0.12
	}
	if o.HillClimbIters == 0 {
		o.HillClimbIters = 50
	}
	return o
}

// Result is a localization fix.
type Result struct {
	Pos        geom.Point
	Likelihood float64 // absolute likelihood at the fix
	Confidence float64 // likelihood relative to the theoretical maximum
}

// Localize runs the grid search of Eq. 15 followed by hill climbing and
// returns the maximum-likelihood target position.
func Localize(views []*View, grid Grid, opts Options) (Result, error) {
	if len(views) == 0 {
		return Result{}, ErrNoViews
	}
	if err := grid.Validate(); err != nil {
		return Result{}, err
	}
	opts = opts.withDefaults()

	// Integer cell indices: accumulating y += Cell drifts in floating
	// point and can drop the last row/column before reaching YMax.
	nx, ny := grid.Cells()
	best := Result{Likelihood: -1}
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			p := grid.CellAt(ix, iy)
			if l := Likelihood(views, p); l > best.Likelihood {
				best = Result{Pos: p, Likelihood: l}
			}
		}
	}
	best = hillClimb(views, grid, best, opts.HillClimbIters)
	max := theoreticalMax(len(views))
	best.Confidence = best.Likelihood / max
	if best.Confidence < opts.MinPeak {
		return Result{}, ErrNotCovered
	}
	return best, nil
}

// theoreticalMax is the likelihood of the strongest *plausible* fix: a
// target is typically seen by about two readers (it cannot block paths
// toward every array at once), so the reference is two full-strength
// agreements with every other reader silent. Confidence ≈ 1 therefore
// means "at least two readers agree here", and a single reader's ridge
// — or pure noise — scores around ε or ε² respectively.
func theoreticalMax(n int) float64 {
	agree := n
	if agree > 2 {
		agree = 2
	}
	return math.Pow(1+epsilon, float64(agree)) * math.Pow(epsilon, float64(n-agree))
}

// hillClimb refines a fix by repeated best-neighbour moves with a
// shrinking step, starting at the grid resolution.
func hillClimb(views []*View, grid Grid, start Result, iters int) Result {
	step := grid.Cell
	cur := start
	for i := 0; i < iters && step > 1e-4; i++ {
		improved := false
		for _, d := range [][2]float64{{step, 0}, {-step, 0}, {0, step}, {0, -step}, {step, step}, {step, -step}, {-step, step}, {-step, -step}} {
			p := geom.Pt(cur.Pos.X+d[0], cur.Pos.Y+d[1], grid.Z)
			if !grid.Contains(p) {
				continue
			}
			if l := Likelihood(views, p); l > cur.Likelihood {
				cur = Result{Pos: p, Likelihood: l}
				improved = true
			}
		}
		if !improved {
			step /= 2
		}
	}
	return cur
}

// LocalizeMulti extracts up to maxTargets likelihood maxima separated by
// at least minSep metres (non-maximum suppression over the grid). Peaks
// below MinPeak confidence are discarded. This reproduces the paper's
// multi-target capability (Section 6.7): sparsely located targets block
// disjoint path subsets and appear as separate likelihood modes.
func LocalizeMulti(views []*View, grid Grid, maxTargets int, minSep float64, opts Options) ([]Result, error) {
	if len(views) == 0 {
		return nil, ErrNoViews
	}
	if err := grid.Validate(); err != nil {
		return nil, err
	}
	if maxTargets <= 0 {
		return nil, nil
	}
	nx, ny := grid.Cells()
	field := make([]float64, nx*ny)
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			field[iy*nx+ix] = Likelihood(views, grid.CellAt(ix, iy))
		}
	}
	return extractTargets(views, grid, field, nx, ny, maxTargets, minSep, opts), nil
}

// extractTargets runs the non-maximum suppression of LocalizeMulti over
// an already-evaluated likelihood field; field is consumed (zeroed).
func extractTargets(views []*View, grid Grid, field []float64, nx, ny, maxTargets int, minSep float64, opts Options) []Result {
	opts = opts.withDefaults()
	max := theoreticalMax(len(views))
	var out []Result
	taken := make([]geom.Point, 0, maxTargets)
	for len(out) < maxTargets {
		bi, bl := -1, 0.0
		for i, l := range field {
			if l > bl {
				p := grid.CellAt(i%nx, i/nx)
				ok := true
				for _, tp := range taken {
					if p.Dist2D(tp) < minSep {
						ok = false
						break
					}
				}
				if ok {
					bi, bl = i, l
				}
			}
		}
		if bi < 0 || bl/max < opts.MinPeak {
			break
		}
		p := grid.CellAt(bi%nx, bi/nx)
		r := hillClimb(views, grid, Result{Pos: p, Likelihood: bl}, opts.HillClimbIters)
		r.Confidence = r.Likelihood / max
		// Hill climbing may converge onto an already-accepted mode (the
		// seed was a shoulder of the same ridge): suppress and move on.
		dup := false
		for _, tp := range taken {
			if r.Pos.Dist2D(tp) < minSep {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, r)
			taken = append(taken, r.Pos)
		}
		// Suppress the whole connected mode: flood-fill from the seed
		// across every cell still above the acceptance floor (kills
		// ridge shoulders disc suppression would miss — separate modes
		// stay separate because their connecting valleys sit below the
		// floor), plus a minSep disc around both the seed and the summit.
		floodSuppress(field, nx, ny, bi, 0.9*opts.MinPeak*max)
		for i := range field {
			q := grid.CellAt(i%nx, i/nx)
			if q.Dist2D(p) < minSep || q.Dist2D(r.Pos) < minSep {
				field[i] = 0
			}
		}
	}
	return out
}

// floodSuppress zeroes the 4-connected component of cells with value
// above thresh, starting from cell start.
func floodSuppress(field []float64, nx, ny, start int, thresh float64) {
	if field[start] <= 0 {
		return
	}
	stack := []int{start}
	field[start] = 0
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		x, y := i%nx, i/nx
		for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			qx, qy := x+d[0], y+d[1]
			if qx < 0 || qx >= nx || qy < 0 || qy >= ny {
				continue
			}
			j := qy*nx + qx
			if field[j] > thresh {
				field[j] = 0
				stack = append(stack, j)
			}
		}
	}
}

// AngleObservation is one blocked-path angle at one reader, for the
// explicit triangulation formulation.
type AngleObservation struct {
	Array *rf.Array
	Angle float64 // blocked-path AoA, radians
}

// Triangulate intersects the direction cones of two angle observations
// at different arrays and returns the intersection points that fall
// inside the grid. An AoA θ at a linear array defines two rays in the
// plane (mirror ambiguity about the array axis); all valid ray-pair
// intersections are returned.
func Triangulate(a, b AngleObservation, grid Grid) []geom.Point {
	var out []geom.Point
	for _, da := range rayDirs(a) {
		for _, db := range rayDirs(b) {
			p, ok := intersectRays(a.Array.Center(), da, b.Array.Center(), db)
			if !ok {
				continue
			}
			p.Z = grid.Z
			if grid.Contains(p) {
				out = append(out, p)
			}
		}
	}
	return out
}

// rayDirs returns the two planar unit directions at angle θ from the
// array's AoA reference direction (the negative element axis — see
// rf.Array.AngleTo), mirror-symmetric about the array line.
func rayDirs(o AngleObservation) [2]geom.Point {
	ax := o.Array.Axis.Scale(-1)
	// Perpendicular in the plane.
	perp := geom.Pt2(-ax.Y, ax.X)
	c, s := math.Cos(o.Angle), math.Sin(o.Angle)
	d1 := ax.Scale(c).Add(perp.Scale(s))
	d2 := ax.Scale(c).Add(perp.Scale(-s))
	return [2]geom.Point{d1, d2}
}

// intersectRays intersects two forward rays p + t·d (t ≥ 0) in the x-y
// plane.
func intersectRays(p1, d1, p2, d2 geom.Point) (geom.Point, bool) {
	den := d1.X*d2.Y - d1.Y*d2.X
	if math.Abs(den) < 1e-12 {
		return geom.Point{}, false
	}
	dx, dy := p2.X-p1.X, p2.Y-p1.Y
	t1 := (dx*d2.Y - dy*d2.X) / den
	t2 := (dx*d1.Y - dy*d1.X) / den
	if t1 < 0 || t2 < 0 {
		return geom.Point{}, false
	}
	return geom.Pt2(p1.X+t1*d1.X, p1.Y+t1*d1.Y), true
}

// Tracker smooths a sequence of localization fixes for a moving target
// (Section 8: ≈0.1 s snapshots, human walking 1-2 m/s). It applies a
// max-speed gate and exponential smoothing, and coasts through
// deadzones with the last velocity estimate.
type Tracker struct {
	// MaxSpeed gates fixes: jumps implying more than MaxSpeed m/s are
	// rejected as outliers. 0 = 3 m/s.
	MaxSpeed float64
	// Alpha is the exponential smoothing weight of the newest fix.
	// 0 = 0.6.
	Alpha float64
	// Interval is the snapshot period in seconds. 0 = 0.1.
	Interval float64
	// MaxMisses is how many consecutive rejected/missing fixes the
	// tracker coasts through before it abandons the track and accepts
	// the next fix unconditionally (re-initialization). 0 = 5.
	MaxMisses int

	init   bool
	pos    geom.Point
	vel    geom.Point
	misses int
}

func (t *Tracker) params() (maxSpeed, alpha, interval float64, maxMisses int) {
	maxSpeed, alpha, interval, maxMisses = t.MaxSpeed, t.Alpha, t.Interval, t.MaxMisses
	if maxSpeed == 0 {
		maxSpeed = 3
	}
	if alpha == 0 {
		alpha = 0.6
	}
	if interval == 0 {
		interval = 0.1
	}
	if maxMisses == 0 {
		maxMisses = 5
	}
	return
}

// Update feeds a new fix (ok=false for a deadzone miss) and returns the
// smoothed position estimate. After MaxMisses consecutive misses or
// gated fixes the track is considered lost: coasting stops (the
// velocity is zeroed so a poisoned estimate cannot drag the track away)
// and the next fix re-initializes the track unconditionally.
func (t *Tracker) Update(fix geom.Point, ok bool) geom.Point {
	maxSpeed, alpha, interval, maxMisses := t.params()
	if !t.init {
		if ok {
			t.pos, t.init = fix, true
		}
		return t.pos
	}
	lost := t.misses >= maxMisses
	if ok && lost {
		// Re-acquire: trust the new fix, restart smoothing.
		t.pos = fix
		t.vel = geom.Point{}
		t.misses = 0
		return t.pos
	}
	if !ok || fix.Dist2D(t.pos) > maxSpeed*interval*2 {
		t.misses++
		if t.misses >= maxMisses {
			// Track lost: hold position instead of coasting further.
			t.vel = geom.Point{}
			return t.pos
		}
		// Deadzone or speed-gate rejection: coast on prediction.
		t.vel = t.vel.Scale(0.9)
		t.pos = t.pos.Add(t.vel.Scale(interval))
		return t.pos
	}
	t.misses = 0
	newPos := t.pos.Scale(1 - alpha).Add(fix.Scale(alpha))
	t.vel = newPos.Sub(t.pos).Scale(1 / interval)
	t.pos = newPos
	return t.pos
}

// Position returns the current smoothed estimate.
func (t *Tracker) Position() geom.Point { return t.pos }

// Initialized reports whether the tracker has received any valid fix.
func (t *Tracker) Initialized() bool { return t.init }
