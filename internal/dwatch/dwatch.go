// Package dwatch is the top-level D-Watch pipeline — the public entry
// point gluing the substrates together along the workflow of Section
// 4.4 of the paper:
//
//	Step 1  Data collection: baseline AoA data with no target present
//	        (seconds, not the hours of fingerprint systems), then online
//	        data once targets may be present.
//	Step 2  Pre-processing: one-time wireless phase calibration removes
//	        the readers' RF-chain offsets.
//	Step 3  Target angle estimation: per reader and per tag, P-MUSIC
//	        spectra are compared between baseline and online; peaks that
//	        dropped mark blocked paths.
//	Step 4  Localization: the per-reader drop spectra are fused on a
//	        grid by the likelihood of Eq. 15 with hill climbing.
package dwatch

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"dwatch/internal/calib"
	"dwatch/internal/channel"
	"dwatch/internal/geom"
	"dwatch/internal/loc"
	"dwatch/internal/music"
	"dwatch/internal/pmusic"
	"dwatch/internal/reader"
	"dwatch/internal/rf"
	"dwatch/internal/sim"
	"dwatch/internal/tag"
)

// CalibrationMode selects how RF-chain offsets are handled.
type CalibrationMode int

// Calibration modes.
const (
	// CalibWireless runs the paper's subspace calibration (Section 4.1).
	CalibWireless CalibrationMode = iota
	// CalibWired uses the true offsets — the ArrayTrack-style wired
	// ground truth the paper treats as reference.
	CalibWired
	// CalibNone skips calibration (the "No" baseline of Fig. 10).
	CalibNone
)

// Config tunes the pipeline.
type Config struct {
	// Snapshots per tag per acquisition; 0 = 10 (the paper's packet count).
	Snapshots int
	// GridSize is the AoA scan resolution; 0 = 361 (0.5° steps).
	GridSize int
	// CalibTags is how many tags (nearest each array) serve as
	// calibration anchors; 0 = 6.
	CalibTags int
	// MinDrop is the per-peak fractional power drop that counts as a
	// blocking event; 0 = 0.35.
	MinDrop float64
	// PeakRatio is the baseline peak detection ratio; 0 = 0.05.
	PeakRatio float64
	// DropFloor is the per-path fractional drop below which a peak
	// change is treated as noise when building the fused drop spectrum;
	// 0 = 0.2.
	DropFloor float64
	// BumpSigma is the angular width (radians) of the evidence bump
	// rendered around each blocked-path angle; 0 = 2°.
	BumpSigma float64
	// AngleBand excludes peaks within this many radians of the array's
	// endfire directions (0 and π), where a linear array has no
	// resolution and MUSIC produces unstable artifacts; 0 = 12°.
	AngleBand float64
	// StabilityTol is the maximum fractional power difference between
	// the two baseline rounds for a path peak to be monitored at all;
	// 0 = 0.5.
	StabilityTol float64
	// MinAbsPeakFrac discards monitored peaks whose absolute P-MUSIC
	// power is below this fraction of the reader's strongest monitored
	// peak across all tags; such peaks sit in the coherent-sidelobe
	// floor of stronger paths and their "power" tracks other paths, not
	// their own. 0 = 0.01 (−20 dB).
	MinAbsPeakFrac float64
	// Calibration mode.
	Calibration CalibrationMode
	// Loc are the localization options.
	Loc loc.Options
	// Music are the subspace options (grid size is overridden by
	// GridSize).
	Music music.Options
	// RunInventory gates acquisitions on Gen2 slotted-ALOHA singulation.
	RunInventory bool
}

func (c Config) withDefaults() Config {
	if c.Snapshots == 0 {
		c.Snapshots = 10
	}
	if c.GridSize == 0 {
		c.GridSize = 361
	}
	if c.CalibTags == 0 {
		c.CalibTags = 6
	}
	if c.MinDrop == 0 {
		c.MinDrop = 0.35
	}
	if c.PeakRatio == 0 {
		c.PeakRatio = 0.05
	}
	if c.DropFloor == 0 {
		c.DropFloor = 0.2
	}
	if c.BumpSigma == 0 {
		c.BumpSigma = 2 * math.Pi / 180
	}
	if c.AngleBand == 0 {
		c.AngleBand = 12 * math.Pi / 180
	}
	if c.StabilityTol == 0 {
		c.StabilityTol = 0.5
	}
	if c.MinAbsPeakFrac == 0 {
		c.MinAbsPeakFrac = 0.01
	}
	c.Music.GridSize = c.GridSize
	return c
}

// System is an instantiated D-Watch deployment bound to a simulated
// scenario.
type System struct {
	Scenario *sim.Scenario
	cfg      Config

	offsets map[string][]float64 // reader ID → offset estimate
	fuser   *Fuser               // baseline state + view building
}

// Pipeline-state errors.
var (
	ErrNotCalibrated = errors.New("dwatch: system not calibrated")
	ErrNoBaseline    = errors.New("dwatch: baseline not collected")
)

// New binds a pipeline to a scenario, tuned by functional options
// (none = the paper's defaults).
func New(sc *sim.Scenario, opts ...Option) *System {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	return &System{Scenario: sc, cfg: cfg.withDefaults()}
}

// Config returns the effective (defaulted) configuration.
func (s *System) Config() Config { return s.cfg }

// Calibrate performs Step 2: estimate each reader's RF-chain offsets.
// With CalibWireless it uses the CalibTags tags nearest the array as
// anchors with known positions (only calibration needs tag locations —
// paper footnote 2).
func (s *System) Calibrate() error {
	s.offsets = make(map[string][]float64, len(s.Scenario.Readers))
	for _, r := range s.Scenario.Readers {
		switch s.cfg.Calibration {
		case CalibWired:
			s.offsets[r.ID] = append([]float64(nil), r.Offsets...)
		case CalibNone:
			s.offsets[r.ID] = make([]float64, r.Array.Elements)
		case CalibWireless:
			offs, err := s.calibrateReader(r)
			if err != nil {
				return fmt.Errorf("dwatch: calibrate %s: %w", r.ID, err)
			}
			s.offsets[r.ID] = offs
		default:
			return fmt.Errorf("dwatch: unknown calibration mode %d", s.cfg.Calibration)
		}
	}
	return nil
}

func (s *System) calibrateReader(r *reader.Reader) ([]float64, error) {
	anchors := nearestTags(s.Scenario.Tags, r, s.cfg.CalibTags)
	snaps, err := r.Acquire(s.Scenario.Env, &tag.Population{Tags: anchors}, nil,
		reader.AcquireOptions{Snapshots: s.cfg.Snapshots})
	if err != nil {
		return nil, err
	}
	obs := make([]calib.TagObs, 0, len(snaps))
	for _, sn := range snaps {
		o, err := calib.NewTagObs(sn.Data, r.Array.SteeringAt(sn.Tag.Pos))
		if err != nil {
			return nil, err
		}
		obs = append(obs, o)
	}
	return calib.Calibrate(r.Array, obs, calib.Options{Rng: s.Scenario.Rng})
}

// nearestTags returns the k tags closest to the reader's array centre.
func nearestTags(pop *tag.Population, r *reader.Reader, k int) []tag.Tag {
	c := r.Array.Center()
	tags := append([]tag.Tag(nil), pop.Tags...)
	// Partial selection sort: k is small.
	if k > len(tags) {
		k = len(tags)
	}
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(tags); j++ {
			if tags[j].Pos.Dist(c) < tags[best].Pos.Dist(c) {
				best = j
			}
		}
		tags[i], tags[best] = tags[best], tags[i]
	}
	return tags[:k]
}

// spectra acquires and computes calibrated P-MUSIC spectra for every
// readable tag at every reader, with the given targets in the scene.
func (s *System) spectra(targets []channel.Target) (map[string]map[string]*pmusic.Spectrum, error) {
	if s.offsets == nil {
		return nil, ErrNotCalibrated
	}
	out := make(map[string]map[string]*pmusic.Spectrum, len(s.Scenario.Readers))
	for _, r := range s.Scenario.Readers {
		snaps, err := r.Acquire(s.Scenario.Env, s.Scenario.Tags, targets,
			reader.AcquireOptions{Snapshots: s.cfg.Snapshots, RunInventory: s.cfg.RunInventory})
		if err != nil {
			return nil, fmt.Errorf("dwatch: acquire %s: %w", r.ID, err)
		}
		perTag := make(map[string]*pmusic.Spectrum, len(snaps))
		for _, sn := range snaps {
			x, err := calib.Apply(sn.Data, s.offsets[r.ID])
			if err != nil {
				return nil, err
			}
			sp, err := pmusic.Compute(x, r.Array, pmusic.Options{Music: s.cfg.Music, PeakRatio: s.cfg.PeakRatio})
			if err != nil {
				return nil, fmt.Errorf("dwatch: p-music %s tag %x: %w", r.ID, sn.Tag.EPC, err)
			}
			perTag[string(sn.Tag.EPC)] = sp
		}
		out[r.ID] = perTag
	}
	return out, nil
}

// CollectBaseline performs Step 1's no-target measurement. It acquires
// two baseline rounds and monitors only the path peaks that appear in
// both with consistent power: peaks that flicker between rounds (weak
// paths at the edge of the source-count estimate) would later read as
// phantom full drops.
func (s *System) CollectBaseline() error {
	arrays := make(map[string]*rf.Array, len(s.Scenario.Readers))
	for _, r := range s.Scenario.Readers {
		arrays[r.ID] = r.Array
	}
	fuser := NewFuser(arrays, s.cfg)
	for round := 0; round < 2; round++ {
		spectra, err := s.spectra(nil)
		if err != nil {
			return err
		}
		for _, r := range s.Scenario.Readers {
			for _, tg := range s.Scenario.Tags.Tags {
				if sp, ok := spectra[r.ID][string(tg.EPC)]; ok {
					fuser.AddBaseline(r.ID, tg.EPC, sp)
				}
			}
		}
	}
	for _, r := range s.Scenario.Readers {
		fuser.FinishBaseline(r.ID)
	}
	s.fuser = fuser
	return nil
}

// Views performs Step 3 for the given targets: acquire online spectra
// and fuse per-tag path-peak drops into one drop view per reader.
func (s *System) Views(targets []channel.Target) ([]*loc.View, error) {
	if s.fuser == nil {
		return nil, ErrNoBaseline
	}
	online, err := s.spectra(targets)
	if err != nil {
		return nil, err
	}
	views := make([]*loc.View, 0, len(s.Scenario.Readers))
	for _, r := range s.Scenario.Readers {
		if v := s.fuser.BuildView(r.ID, s.fuser.Evidence(r.ID, online[r.ID])); v != nil {
			views = append(views, v)
		}
	}
	return views, nil
}

// addBump accumulates a Gaussian bump of the given amplitude and width
// centred at angle into the drop spectrum.
func addBump(angles, drop []float64, angle, amp, sigma float64) {
	for i, th := range angles {
		d := th - angle
		if d > 4*sigma || d < -4*sigma {
			continue
		}
		drop[i] += amp * math.Exp(-d*d/(2*sigma*sigma))
	}
}

// Locate performs the full Step 3 + Step 4 pipeline for a single
// target.
func (s *System) Locate(targets []channel.Target) (loc.Result, error) {
	views, err := s.Views(targets)
	if err != nil {
		return loc.Result{}, err
	}
	return loc.Localize(views, s.Scenario.Grid, s.cfg.Loc)
}

// LocateRobust performs `rounds` independent acquisition+localization
// cycles and returns the component-wise median fix — the snapshot-level
// outlier rejection Section 4.3 motivates: wrong-angle intersections
// wander between acquisitions while the true mode persists. It fails
// only when every round fails.
func (s *System) LocateRobust(targets []channel.Target, rounds int) (loc.Result, error) {
	if rounds < 1 {
		rounds = 1
	}
	var fixes []loc.Result
	var lastErr error
	for i := 0; i < rounds; i++ {
		res, err := s.Locate(targets)
		if err != nil {
			lastErr = err
			continue
		}
		fixes = append(fixes, res)
	}
	if len(fixes) == 0 {
		return loc.Result{}, lastErr
	}
	xs := make([]float64, len(fixes))
	ys := make([]float64, len(fixes))
	best := fixes[0]
	for i, f := range fixes {
		xs[i], ys[i] = f.Pos.X, f.Pos.Y
		if f.Confidence > best.Confidence {
			best = f
		}
	}
	sort.Float64s(xs)
	sort.Float64s(ys)
	best.Pos = geom.Pt(xs[len(xs)/2], ys[len(ys)/2], best.Pos.Z)
	return best, nil
}

// LocateMulti localizes up to maxTargets simultaneous targets separated
// by at least minSep metres.
func (s *System) LocateMulti(targets []channel.Target, maxTargets int, minSep float64) ([]loc.Result, error) {
	views, err := s.Views(targets)
	if err != nil {
		return nil, err
	}
	return loc.LocalizeMulti(views, s.Scenario.Grid, maxTargets, minSep, s.cfg.Loc)
}

// DetectEvents returns, per reader, the blocked-path events the online
// measurement shows against the baseline — the per-path detection of
// Figs. 12-13.
func (s *System) DetectEvents(targets []channel.Target) (map[string][]pmusic.BlockEvent, error) {
	if s.fuser == nil {
		return nil, ErrNoBaseline
	}
	online, err := s.spectra(targets)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]pmusic.BlockEvent, len(s.Scenario.Readers))
	for _, r := range s.Scenario.Readers {
		var events []pmusic.BlockEvent
		for _, tg := range s.Scenario.Tags.Tags {
			epc := string(tg.EPC)
			b := s.fuser.BaselineSpectrum(r.ID, tg.EPC)
			if b == nil {
				continue
			}
			o, ok := online[r.ID][epc]
			if !ok {
				continue
			}
			ev, err := pmusic.DetectBlocked(b, o, s.cfg.PeakRatio, s.cfg.MinDrop)
			if err != nil {
				return nil, err
			}
			events = append(events, ev...)
		}
		out[r.ID] = events
	}
	return out, nil
}

// Fuser returns the system's evidence fuser (nil before
// CollectBaseline or LoadState). Network consumers like cmd/dwatchd
// share it.
func (s *System) Fuser() *Fuser { return s.fuser }

// SetFuser installs an externally built fuser (e.g. one fed from LLRP
// reports) so SaveState can persist it. Readers calibrated elsewhere
// get zero offsets unless Calibrate ran.
func (s *System) SetFuser(f *Fuser) {
	s.fuser = f
	if s.offsets == nil {
		s.offsets = make(map[string][]float64, len(s.Scenario.Readers))
		for _, r := range s.Scenario.Readers {
			s.offsets[r.ID] = make([]float64, r.Array.Elements)
		}
	}
}

// Offsets returns the calibration estimate for a reader (nil before
// Calibrate).
func (s *System) Offsets(readerID string) []float64 { return s.offsets[readerID] }

// BaselineSpectrum returns a baseline spectrum for inspection (nil when
// absent or before CollectBaseline).
func (s *System) BaselineSpectrum(readerID string, epc []byte) *pmusic.Spectrum {
	if s.fuser == nil {
		return nil
	}
	return s.fuser.BaselineSpectrum(readerID, epc)
}
