package dwatch

import (
	"math"
	"sort"

	"dwatch/internal/loc"
	"dwatch/internal/music"
	"dwatch/internal/pmusic"
	"dwatch/internal/rf"
)

// Fuser turns per-reader, per-tag P-MUSIC evidence into the drop views
// the localizer consumes. It owns the baseline stability filtering of
// Step 1 and the peak-drop evidence rendering of Step 3, independent of
// how the evidence was obtained — the in-process System samples it
// from full simulated spectra (Evidence), the streaming pipeline
// computes it straight from LLRP snapshots at the monitored peaks.
//
// Baseline rounds take full spectra. After its baseline, a reader's
// online evidence is one Eq. 13 beam power per monitored peak: for
// each tag, online[epc][i] is the beam power at MonitoredPeaks(reader,
// epc)[i].Index.
type Fuser struct {
	cfg    Config
	arrays map[string]*rf.Array

	round1    map[string]map[string]*pmusic.Spectrum
	monitored map[string]map[string][]music.Peak
	// keys holds each reader's baseline tag keys in sorted order, kept
	// by addReference as tags arrive.
	keys map[string][]string
}

// NewFuser creates a fuser for readers identified by ID with the given
// array geometries.
func NewFuser(arrays map[string]*rf.Array, cfg Config) *Fuser {
	return &Fuser{
		cfg:       cfg.withDefaults(),
		arrays:    arrays,
		round1:    map[string]map[string]*pmusic.Spectrum{},
		monitored: map[string]map[string][]music.Peak{},
		keys:      map[string][]string{},
	}
}

// AddBaseline feeds one baseline spectrum for (reader, tag). The first
// call per pair records the reference round; the second confirms it:
// only path peaks present in both rounds with consistent power (within
// StabilityTol) and away from the endfire band are monitored. Further
// calls re-confirm against the stored reference (a rolling baseline).
func (f *Fuser) AddBaseline(readerID string, epc []byte, sp *pmusic.Spectrum) {
	key := string(epc)
	perTag := f.round1[readerID]
	if perTag == nil {
		perTag = map[string]*pmusic.Spectrum{}
		f.round1[readerID] = perTag
		f.monitored[readerID] = map[string][]music.Peak{}
	}
	b1, ok := perTag[key]
	if !ok {
		f.addReference(readerID, key, sp)
		return
	}
	// Confirmation round: compute the stable peak set.
	p2 := sp.Peaks(f.cfg.PeakRatio * 0.5)
	var stable []music.Peak
	for _, p := range b1.Peaks(f.cfg.PeakRatio) {
		if p.Angle < f.cfg.AngleBand || p.Angle > math.Pi-f.cfg.AngleBand {
			continue // endfire artifact zone
		}
		m, ok := music.NearestPeak(p2, p.Angle, pmusic.PeakMatchTol)
		if !ok {
			continue
		}
		if math.Abs(m.Amplitude-p.Amplitude)/p.Amplitude > f.cfg.StabilityTol {
			continue
		}
		// Sub-bin angle refinement: the grid quantizes peaks to the
		// scan step; the parabolic fit recovers a fraction of it for
		// evidence-bump placement (Index stays grid-aligned for the
		// beam-power lookups).
		p.Angle = music.RefineAngle(b1.Angles, b1.Power, p.Index)
		stable = append(stable, p)
	}
	f.monitored[readerID][key] = stable
}

// addReference records a tag's reference-round spectrum and keeps the
// reader's sorted tag keys; the reader's maps already exist.
func (f *Fuser) addReference(readerID, key string, sp *pmusic.Spectrum) {
	f.round1[readerID][key] = sp
	keys := f.keys[readerID]
	i := sort.SearchStrings(keys, key)
	if i < len(keys) && keys[i] == key {
		return
	}
	keys = append(keys, "")
	copy(keys[i+1:], keys[i:])
	keys[i] = key
	f.keys[readerID] = keys
}

// FinishBaseline applies a reader's absolute peak floor: monitored
// peaks more than MinAbsPeakFrac below the reader's strongest peak sit
// in the coherent-sidelobe floor of stronger paths and are discarded.
// Call once per reader after all of its baseline spectra are fed; it
// leaves every other reader's monitored set as it is.
func (f *Fuser) FinishBaseline(readerID string) {
	mon := f.monitored[readerID]
	var readerMax float64
	for _, peaks := range mon {
		for _, p := range peaks {
			if p.Amplitude > readerMax {
				readerMax = p.Amplitude
			}
		}
	}
	floor := readerMax * f.cfg.MinAbsPeakFrac
	for epc, peaks := range mon {
		kept := peaks[:0]
		for _, p := range peaks {
			if p.Amplitude >= floor {
				kept = append(kept, p)
			}
		}
		mon[epc] = kept
	}
}

// HasBaseline reports whether any baseline has been recorded.
func (f *Fuser) HasBaseline() bool { return len(f.round1) > 0 }

// MonitoredPeaks returns the stable path peaks for a (reader, tag)
// pair, nil when absent.
func (f *Fuser) MonitoredPeaks(readerID string, epc []byte) []music.Peak {
	m := f.monitored[readerID]
	if m == nil {
		return nil
	}
	return m[string(epc)]
}

// Tags returns the EPC keys of a reader's baseline tags in sorted
// order — the order BuildView folds them in — or nil when the reader
// has no baseline.
func (f *Fuser) Tags(readerID string) []string {
	return append([]string(nil), f.keys[readerID]...)
}

// Evidence samples a reader's online spectra at its monitored peaks:
// for every tag with a baseline and at least one monitored peak, the
// Eq. 13 beam power Beam[p.Index] of its spectrum, one per peak in
// MonitoredPeaks order. That is the whole of a spectrum BuildView
// reads, so BuildView(r, Evidence(r, spectra)) is the full-spectrum
// fusion.
func (f *Fuser) Evidence(readerID string, online map[string]*pmusic.Spectrum) map[string][]float64 {
	mon := f.monitored[readerID]
	out := make(map[string][]float64, len(online))
	for epc, sp := range online {
		peaks := mon[epc]
		if len(peaks) == 0 {
			continue
		}
		ev := make([]float64, len(peaks))
		for i, p := range peaks {
			ev[i] = sp.Beam[p.Index]
		}
		out[epc] = ev
	}
	return out
}

// BaselineSpectrum returns the stored reference spectrum.
func (f *Fuser) BaselineSpectrum(readerID string, epc []byte) *pmusic.Spectrum {
	m := f.round1[readerID]
	if m == nil {
		return nil
	}
	return m[string(epc)]
}

// BuildView fuses one reader's online evidence against its baseline
// into a drop view. online[epc][i] is the Eq. 13 beam power at the
// tag's i-th monitored peak (see Evidence); a tag whose evidence does
// not cover its monitored peaks is skipped. Tag EPC keys are iterated
// in sorted order for reproducibility. Returns nil when the reader has
// no usable baseline or no online overlap.
func (f *Fuser) BuildView(readerID string, online map[string][]float64) *loc.View {
	arr := f.arrays[readerID]
	base := f.round1[readerID]
	if arr == nil || base == nil {
		return nil
	}
	mon := f.monitored[readerID]
	var sum []float64
	var angles []float64
	for _, epc := range f.keys[readerID] {
		b := base[epc]
		o, ok := online[epc]
		if !ok {
			continue // tag missed this cycle (inventory), skip
		}
		peaks := mon[epc]
		if len(peaks) == 0 || len(o) != len(peaks) {
			continue
		}
		if sum == nil {
			sum = make([]float64, len(b.Angles))
			angles = b.Angles
		}
		// Strongest monitored peak sets the per-tag weight scale so
		// noisy weak paths cannot outvote solid ones.
		var maxAmp float64
		strongest := peaks[0]
		for _, p := range peaks {
			if p.Amplitude > maxAmp {
				maxAmp = p.Amplitude
				strongest = p
			}
		}
		// Power changes measured on the beamformed spectrum PB(θ)
		// (Eq. 13): unlike the MUSIC factor it does not depend on the
		// estimated source count, so a weak path flickering out of the
		// subspace estimate cannot fake a full drop — only a genuine
		// power change registers.
		dropped := 0
		var maxDrop float64
		for i, p := range peaks {
			d := pathDrop(b.Beam[p.Index], o[i])
			if d >= f.cfg.DropFloor {
				dropped++
				if d > maxDrop {
					maxDrop = d
				}
			}
		}
		// Forward-link block: when (nearly) every path of the tag dims
		// at once, the target is obstructing the reader→tag excitation
		// leg, which lies along the tag's direct angle — the drops at
		// the reflected angles are the "wrong angles" of Fig. 1(c) and
		// are suppressed in favour of a single direct-angle bump.
		if len(peaks) >= 2 && float64(dropped) >= 0.8*float64(len(peaks)) {
			addBump(angles, sum, strongest.Angle, maxDrop, f.cfg.BumpSigma)
			continue
		}
		for i, p := range peaks {
			d := pathDrop(b.Beam[p.Index], o[i])
			if d < f.cfg.DropFloor {
				continue
			}
			w := math.Sqrt(p.Amplitude / maxAmp)
			addBump(angles, sum, p.Angle, d*w, f.cfg.BumpSigma)
		}
	}
	if sum == nil {
		return nil
	}
	// Cap at 1 but do NOT normalize: the drop fractions are already
	// physically meaningful ([0,1] of a path's power), and scaling a
	// reader whose best evidence is a marginal 0.3 drop up to full
	// strength would let weak phantom evidence outvote solid blocks.
	for i := range sum {
		if sum[i] > 1 {
			sum[i] = 1
		}
	}
	return &loc.View{Array: arr, Angles: angles, Drop: sum}
}

// pathDrop is the fraction of a monitored path's baseline beam power
// bb that the online beam power o lost, capped at 1; 0 when the
// baseline has no power there. BuildView evaluates it twice per peak
// rather than keep a slice: the same expression gives the same bits.
func pathDrop(bb, o float64) float64 {
	if bb <= 0 {
		return 0
	}
	d := (bb - o) / bb
	if d > 1 {
		d = 1
	}
	return d
}
