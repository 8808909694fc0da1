package pmusic

import (
	"fmt"

	"dwatch/internal/music"
	"dwatch/internal/rf"
)

// Workspace is the reusable per-worker state for repeated P-MUSIC runs
// against one array with fixed options. It wraps a music.Workspace (so
// the subspace stage reuses its correlation, smoothing,
// eigendecomposition, noise-subspace and pseudo-spectrum scratch and
// the shared steering table) and adds the peak and normalization
// scratch of the power stage. The returned Spectrum owns its memory —
// its Angles alias the immutable shared grid — and may be retained by
// callers (baselines, sequence groups) across further workspace calls.
//
// Not safe for concurrent use; give each goroutine its own.
type Workspace struct {
	opts  Options
	mw    *music.Workspace
	nor   []float64    // normalization scratch, fully overwritten per run
	peaks []music.Peak // peak-finding scratch
}

// NewWorkspace resolves the options and builds the underlying MUSIC
// workspace (which fetches or computes the shared steering table).
func NewWorkspace(arr *rf.Array, opts Options) (*Workspace, error) {
	opts = opts.withDefaults()
	mw, err := music.NewWorkspace(arr, opts.Music)
	if err != nil {
		return nil, err
	}
	return &Workspace{
		opts: opts,
		mw:   mw,
		nor:  make([]float64, mw.Table().Len()),
	}, nil
}

// Compute runs the full P-MUSIC pipeline of Eq. 14 on N snapshot rows
// of M samples each — the llrp.TagReport.Rows form,
// correlated in place without a matrix copy. Every stage runs in the
// workspace's scratch; the only allocations are the returned Spectrum
// and the one array its Power and Beam share.
//
// The beamformer stage evaluates Eq. 13 in the correlation domain
// (PB = aᴴ·R̂·a / M², see beamPowerCorr), reusing the correlation
// matrix the subspace stage just accumulated instead of re-scanning the
// snapshots — the same value up to floating-point association, ~3-4×
// cheaper per angle at production snapshot counts.
func (w *Workspace) Compute(rows [][]complex128) (*Spectrum, error) {
	spec, err := w.mw.Scan(rows)
	if err != nil {
		return nil, err
	}
	tab := w.mw.Table()
	n := len(spec)
	buf := make([]float64, 2*n)
	power, beam := buf[:n:n], buf[n:]
	beamPowerCorr(beam, w.mw.Correlation(), tab, nil)
	w.peaks = normalizeInto(w.nor, w.peaks, tab.Angles, spec, w.opts.PeakRatio)
	for i := range power {
		power[i] = beam[i] * w.nor[i]
	}
	return &Spectrum{Angles: tab.Angles, Power: power, Beam: beam}, nil
}

// BeamAt evaluates only the Eq. 13 beam power of N snapshot rows at
// the given grid indices, writing PB(θ_idx[k]) to out[k]: the one
// number per monitored peak the online fix reads (dwatch.Fuser.
// BuildView). It runs Compute's correlation step (music.Workspace.
// Correlate, with the same row validation) and then beamPowerCorr's
// loop over idx alone, so out[k] is bit-identical to Compute(rows).
// Beam[idx[k]] — at a few percent of its cost, and allocating nothing.
// With no indices it only validates the rows. An index outside the
// steering table, or an out not the length of idx, is an error.
func (w *Workspace) BeamAt(rows [][]complex128, idx []int, out []float64) error {
	if len(out) != len(idx) {
		return fmt.Errorf("%w: %d outputs for %d indices", music.ErrBadInput, len(out), len(idx))
	}
	tab := w.mw.Table()
	for _, i := range idx {
		if i < 0 || i >= tab.Len() {
			return fmt.Errorf("%w: grid index %d outside %d angles", music.ErrBadInput, i, tab.Len())
		}
	}
	if len(idx) == 0 {
		return w.mw.CheckRows(rows)
	}
	if err := w.mw.Correlate(rows); err != nil {
		return err
	}
	beamPowerCorr(out, w.mw.Correlation(), tab, idx)
	return nil
}
