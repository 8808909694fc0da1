// Package pmusic implements D-Watch's central algorithmic contribution:
// the power MUSIC (P-MUSIC) spectrum of Section 4.2.
//
// Classic MUSIC produces a pseudo-probability spectrum whose peak
// heights say nothing about per-path signal power, so a blocked path
// cannot be identified reliably from peak-amplitude changes (Fig. 4 of
// the paper). P-MUSIC combines two ingredients:
//
//   - PB(θ): a beamformed power estimate (Eq. 13). Weighting the
//     per-antenna samples by e^{jω(m,θ)} aligns the signal arriving from
//     direction θ so it adds constructively (×M amplitude) while other
//     paths add with pseudo-random phases and average out.
//   - Nor(B(θ)): the MUSIC spectrum with every peak normalized to
//     amplitude 1 (Eq. 14), keeping MUSIC's sharp angular selectivity
//     but discarding its meaningless peak heights.
//
// Their product Ω(θ) = PB(θ)·Nor(B(θ)) peaks exactly at the path AoAs
// with heights proportional to per-path power — so a blocked path shows
// a clean, isolated drop.
package pmusic

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"dwatch/internal/cmatrix"
	"dwatch/internal/music"
	"dwatch/internal/rf"
)

// ErrGridMismatch is returned when two spectra use different angle grids.
var ErrGridMismatch = errors.New("pmusic: spectra use different angle grids")

// Options configures a P-MUSIC run. The embedded music.Options control
// the subspace stage (grid, smoothing, source estimation).
type Options struct {
	Music music.Options
	// PeakRatio is the minimum ratio to the global maximum for a MUSIC
	// local maximum to count as a path peak during normalization.
	// 0 means the default 0.03.
	PeakRatio float64
}

func (o Options) withDefaults() Options {
	if o.PeakRatio == 0 {
		o.PeakRatio = 0.03
	}
	return o
}

// Spectrum is a P-MUSIC AoA/power spectrum. It is read-only once
// computed: Power and Beam share one backing array, and Angles aliases
// the shared scan grid.
type Spectrum struct {
	Angles []float64 // scan grid, radians
	Power  []float64 // Ω(θ): per-direction signal power estimate
	Beam   []float64 // PB(θ): raw beamformed power (Eq. 13)
}

// BeamPower computes PB(θ) of Eq. 13 averaged over snapshots:
// (1/N)·Σₙ ‖Σₘ xₙₘ·e^{jω(m,θ)}‖² / M². When angles is the canonical
// uniform rf.AngleGrid — the only grid the spectrum pipeline scans —
// the weights come from the shared precomputed steering table instead
// of per-angle cmplx.Exp calls; arbitrary grids fall back to computing
// weights on the fly. Both paths are bit-identical.
func BeamPower(x *cmatrix.Matrix, arr *rf.Array, angles []float64) ([]float64, error) {
	if x.Cols != arr.Elements {
		return nil, fmt.Errorf("pmusic: %d columns for %d-element array", x.Cols, arr.Elements)
	}
	if x.Rows == 0 {
		return nil, errors.New("pmusic: no snapshots")
	}
	out := make([]float64, len(angles))
	if tab := weightTableFor(arr, angles); tab != nil {
		beamPowerTable(out, x, tab)
		return out, nil
	}
	m := arr.Elements
	w := make([]complex128, m)
	for ai, th := range angles {
		// Conjugate of the steering vector: weights e^{+jω(m,θ)}.
		for mi := 0; mi < m; mi++ {
			w[mi] = cmplx.Exp(complex(0, arr.Omega(mi, th)))
		}
		out[ai] = beamPowerAt(x, w)
	}
	return out, nil
}

// beamPowerAt evaluates the Eq. 13 beamformer for one weight vector.
func beamPowerAt(x *cmatrix.Matrix, w []complex128) float64 {
	m := x.Cols
	var acc float64
	for n := 0; n < x.Rows; n++ {
		var sum complex128
		row := x.Data[n*m : (n+1)*m]
		for mi, xv := range row {
			sum += xv * w[mi]
		}
		acc += real(sum)*real(sum) + imag(sum)*imag(sum)
	}
	return acc / float64(x.Rows) / float64(m*m)
}

// beamPowerTable fills out[i] with the beam power at each table angle —
// the zero-allocation hot path, flat row-major walks only.
func beamPowerTable(out []float64, x *cmatrix.Matrix, tab *rf.SteeringTable) {
	for i := range out {
		out[i] = beamPowerAt(x, tab.Weights(i))
	}
}

// beamPowerCorr fills out with the Eq. 13 beam power evaluated in the
// correlation domain: out[k] at grid angle idx[k], or out[i] at every
// angle i when idx is nil. Expanding |Σₘ xₙₘ·wₘ|² and averaging over
// snapshots gives PB(θ)·M² = Σₘₖ wₘ·conj(wₖ)·R̂[m,k] — i.e. the
// beamformer is a quadratic form in the correlation matrix MUSIC has
// already computed. Since the weights are unit-modulus, the diagonal
// contributes tr(R̂) once for every angle, and Hermitian symmetry folds
// the off-diagonal sum to 2·Re over the upper triangle: M(M−1)/2
// complex terms per angle instead of N·M, with no second pass over the
// snapshot matrix. Algebraically identical to beamPowerAt; floating-
// point results differ in the last bits (documented tolerance — see
// DESIGN.md "Scaling the hot path").
//
// The full spectrum and the monitored-peak path (Workspace.BeamAt) run
// this one prologue and this one per-angle loop, so the beam power at
// an index is the same bits whichever path computed it.
func beamPowerCorr(out []float64, r *cmatrix.Matrix, tab *rf.SteeringTable, idx []int) {
	m := r.Rows
	var tr float64
	for i := 0; i < m; i++ {
		tr += real(r.At(i, i))
	}
	inv := 1 / float64(m*m)
	// For a uniform linear array ω(m,θ) is linear in m, so the weight
	// pair product wᵢ·conj(wₖ) depends only on the separation d = k−i
	// and equals conj(w_d). The upper-triangle sum therefore collapses
	// by diagonal: off(θ) = Σ_d Re(c_d·conj(w_d)) with the per-diagonal
	// correlation sums c_d = Σᵢ R̂[i,i+d] folded once, leaving M−1 terms
	// per angle instead of M(M−1)/2. Agreement with the expanded pair
	// sum is to machine rounding, inside the beamformer's documented
	// tolerance vs the snapshot-domain reference.
	var cbuf [16]complex128
	var diag []complex128
	if m-1 <= len(cbuf) {
		diag = cbuf[:m-1]
	} else {
		diag = make([]complex128, m-1)
	}
	for d := 1; d < m; d++ {
		var c complex128
		for i := 0; i+d < m; i++ {
			c += r.Data[i*m+i+d]
		}
		diag[d-1] = c
	}
	for k := range out {
		ai := k
		if idx != nil {
			ai = idx[k]
		}
		w := tab.Weights(ai)
		var off float64
		for d := 1; d < m; d++ {
			cd, wd := diag[d-1], w[d]
			off += real(cd)*real(wd) + imag(cd)*imag(wd) // Re(c_d·conj(w_d))
		}
		out[k] = (tr + 2*off) * inv
	}
}

// weightTableFor returns the shared steering table when angles is
// exactly the uniform rf.AngleGrid(len(angles)), nil otherwise. The
// subarray length mirrors the MUSIC default so the P-MUSIC pipeline's
// two stages share one table.
func weightTableFor(arr *rf.Array, angles []float64) *rf.SteeringTable {
	n := len(angles)
	if n < 2 {
		return nil
	}
	for i, th := range angles {
		if th != math.Pi*float64(i)/float64(n-1) {
			return nil
		}
	}
	tab, err := rf.SteeringTableFor(arr, n, music.DefaultSubarray(arr.Elements))
	if err != nil {
		return nil
	}
	return tab
}

// Normalize returns the MUSIC spectrum with every detected peak scaled
// to exactly 1 (the paper's Nor(·) of Eq. 14). The spectrum is segmented
// at the minima between consecutive peaks; each segment is divided by
// its own peak amplitude. Segments without a detected peak are divided
// by the global maximum, keeping them well below 1.
func Normalize(angles, spec []float64, peakRatio float64) []float64 {
	out := make([]float64, len(spec))
	NormalizeInto(out, angles, spec, peakRatio)
	return out
}

// NormalizeInto is Normalize writing into out (len(spec)); every entry
// of out is overwritten, so a reused scratch slice needs no clearing.
func NormalizeInto(out, angles, spec []float64, peakRatio float64) {
	normalizeInto(out, nil, angles, spec, peakRatio)
}

// normalizeInto is NormalizeInto finding the peaks in the peaks
// scratch slice, which it returns for reuse.
func normalizeInto(out []float64, peaks []music.Peak, angles, spec []float64, peakRatio float64) []music.Peak {
	peaks = music.AppendPeaks(peaks[:0], angles, spec, peakRatio)
	if len(peaks) == 0 {
		var max float64
		for _, v := range spec {
			if v > max {
				max = v
			}
		}
		if max <= 0 {
			max = 1
		}
		for i, v := range spec {
			out[i] = v / max
		}
		return peaks
	}
	// Order peaks by grid index.
	for i := 1; i < len(peaks); i++ {
		for j := i; j > 0 && peaks[j].Index < peaks[j-1].Index; j-- {
			peaks[j], peaks[j-1] = peaks[j-1], peaks[j]
		}
	}
	// Each peak's segment runs from the previous segment's end to the
	// minimum between it and the next peak (the last one to the end of
	// the spectrum) and is divided by that peak's amplitude.
	start := 0
	for i, pk := range peaks {
		end := len(spec)
		if i+1 < len(peaks) {
			end = pk.Index
			for j := pk.Index; j <= peaks[i+1].Index; j++ {
				if spec[j] < spec[end] {
					end = j
				}
			}
		}
		den := pk.Amplitude
		if den <= 0 {
			den = 1
		}
		for j := start; j < end; j++ {
			out[j] = spec[j] / den
		}
		start = end
	}
	return peaks
}

// Compute runs the full P-MUSIC pipeline of Eq. 14 on an N×M snapshot
// matrix. It passes the matrix's row views to a fresh Workspace, so the
// stateless and workspace entry points are one code path — including
// the correlation-domain beamformer (see Workspace.Compute). BeamPower
// remains the time-domain Eq. 13 reference; Spectrum.Beam agrees with
// it to floating-point association order.
func Compute(x *cmatrix.Matrix, arr *rf.Array, opts Options) (*Spectrum, error) {
	ws, err := NewWorkspace(arr, opts)
	if err != nil {
		return nil, err
	}
	return ws.Compute(x.RowViews())
}

// Peaks returns the path peaks of the P-MUSIC power spectrum.
func (s *Spectrum) Peaks(minRatio float64) []music.Peak {
	return music.FindPeaks(s.Angles, s.Power, minRatio)
}

// PowerAt returns the spectrum power at the grid angle closest to
// theta. Spectra scan the uniform rf.AngleGrid, so the lookup is O(1)
// direct indexing via the same rf.GridBin helper loc.View.DropAt uses.
func (s *Spectrum) PowerAt(theta float64) float64 {
	if len(s.Angles) == 0 {
		return 0
	}
	return s.Power[rf.GridBin(theta, len(s.Angles))]
}

// RelativeDrop returns, per grid angle, the fractional power drop from
// base to online, clamped to [0, 1]:
//
//	drop(θ) = max(0, base(θ) − online(θ)) / max(base)
//
// Dividing by the baseline's global maximum (not pointwise by base(θ))
// keeps noise at off-peak angles from inflating into spurious drops.
func RelativeDrop(base, online *Spectrum) ([]float64, error) {
	if err := sameGrid(base, online); err != nil {
		return nil, err
	}
	var max float64
	for _, v := range base.Power {
		if v > max {
			max = v
		}
	}
	out := make([]float64, len(base.Power))
	if max <= 0 {
		return out, nil
	}
	for i := range out {
		d := (base.Power[i] - online.Power[i]) / max
		if d < 0 {
			d = 0
		} else if d > 1 {
			d = 1
		}
		out[i] = d
	}
	return out, nil
}

// BlockEvent is a detected blocked path: a baseline peak whose P-MUSIC
// power dropped online.
type BlockEvent struct {
	Angle     float64 // AoA of the blocked path, radians
	BasePower float64 // baseline peak power
	RelDrop   float64 // fractional drop at the peak, in [0, 1]
}

// PeakMatchTol is the angular tolerance for matching a baseline path
// peak to its online counterpart. MUSIC peaks are extremely sharp, so
// grid jitter of a bin or two between acquisitions is normal; matching
// by nearest peak instead of by exact bin keeps that jitter from
// masquerading as a power drop.
const PeakMatchTol = 4 * math.Pi / 180

// PeakDrops compares the baseline path peaks against the online
// spectrum, peak-matched within PeakMatchTol, and returns one event per
// baseline peak with its fractional power change (which may be ~0 for
// unblocked paths). This is the paper's "monitor the AoA peak amplitude
// changes" operation.
func PeakDrops(base, online *Spectrum, peakRatio float64) ([]BlockEvent, error) {
	if err := sameGrid(base, online); err != nil {
		return nil, err
	}
	onlinePeaks := online.Peaks(peakRatio * 0.5) // looser: a dropped peak is smaller
	var events []BlockEvent
	for _, p := range base.Peaks(peakRatio) {
		if p.Amplitude <= 0 {
			continue
		}
		on := online.Power[p.Index]
		if m, ok := music.NearestPeak(onlinePeaks, p.Angle, PeakMatchTol); ok {
			on = m.Amplitude
		}
		drop := (p.Amplitude - on) / p.Amplitude
		if drop < 0 {
			drop = 0
		} else if drop > 1 {
			drop = 1
		}
		events = append(events, BlockEvent{Angle: p.Angle, BasePower: p.Amplitude, RelDrop: drop})
	}
	return events, nil
}

// DetectBlocked returns the baseline peaks whose peak-matched power
// dropped by at least minDrop (fractional, relative to the peak's own
// baseline power — the per-path test of Section 4.3). peakRatio selects
// which baseline local maxima count as path peaks.
func DetectBlocked(base, online *Spectrum, peakRatio, minDrop float64) ([]BlockEvent, error) {
	all, err := PeakDrops(base, online, peakRatio)
	if err != nil {
		return nil, err
	}
	var events []BlockEvent
	for _, e := range all {
		if e.RelDrop >= minDrop {
			events = append(events, e)
		}
	}
	return events, nil
}

func sameGrid(a, b *Spectrum) error {
	if len(a.Angles) != len(b.Angles) {
		return ErrGridMismatch
	}
	for i := range a.Angles {
		if a.Angles[i] != b.Angles[i] {
			return ErrGridMismatch
		}
	}
	return nil
}
