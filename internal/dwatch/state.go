package dwatch

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"dwatch/internal/music"
	"dwatch/internal/pmusic"
	"dwatch/internal/rf"
)

// Persistence: the paper notes calibration is "a one-time effort for
// one power on-off cycle" and the baseline takes seconds — but a
// deployment restarting its *server* process should not have to redo
// either. SaveState/LoadState serialize the calibration offsets and the
// fused baseline (spectra + monitored peaks) as JSON.

// stateVersion guards the on-disk format.
const stateVersion = 1

// ErrBadState is returned when a state blob fails validation.
var ErrBadState = errors.New("dwatch: bad state")

type spectrumState struct {
	GridSize int       `json:"grid_size"`
	Power    []float64 `json:"power"`
	Beam     []float64 `json:"beam"`
}

type peakState struct {
	Index     int     `json:"index"`
	Angle     float64 `json:"angle"`
	Amplitude float64 `json:"amplitude"`
}

type state struct {
	Version int                  `json:"version"`
	Offsets map[string][]float64 `json:"offsets"`
	// Baseline and Monitored are keyed reader → hex(EPC).
	Baseline  map[string]map[string]spectrumState `json:"baseline"`
	Monitored map[string]map[string][]peakState   `json:"monitored"`
}

// SaveState writes the calibration offsets and baseline to w. It fails
// before Calibrate/CollectBaseline have run.
func (s *System) SaveState(w io.Writer) error {
	if s.offsets == nil {
		return ErrNotCalibrated
	}
	if s.fuser == nil {
		return ErrNoBaseline
	}
	st := state{
		Version:   stateVersion,
		Offsets:   s.offsets,
		Baseline:  map[string]map[string]spectrumState{},
		Monitored: map[string]map[string][]peakState{},
	}
	for rid, perTag := range s.fuser.round1 {
		bl := map[string]spectrumState{}
		mon := map[string][]peakState{}
		for epc, sp := range perTag {
			key := hex.EncodeToString([]byte(epc))
			bl[key] = spectrumState{GridSize: len(sp.Angles), Power: sp.Power, Beam: sp.Beam}
			for _, p := range s.fuser.monitored[rid][epc] {
				mon[key] = append(mon[key], peakState{Index: p.Index, Angle: p.Angle, Amplitude: p.Amplitude})
			}
		}
		st.Baseline[rid] = bl
		st.Monitored[rid] = mon
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&st)
}

// LoadState restores offsets and baseline from r, replacing any
// in-memory calibration/baseline. The scenario (readers, arrays) must
// match the one the state was saved from.
func (s *System) LoadState(r io.Reader) error {
	var st state
	dec := json.NewDecoder(r)
	if err := dec.Decode(&st); err != nil {
		return fmt.Errorf("%w: %v", ErrBadState, err)
	}
	if st.Version != stateVersion {
		return fmt.Errorf("%w: version %d, want %d", ErrBadState, st.Version, stateVersion)
	}
	// Validate against the scenario.
	arrays := make(map[string]*rf.Array, len(s.Scenario.Readers))
	for _, rd := range s.Scenario.Readers {
		arrays[rd.ID] = rd.Array
	}
	for rid, offs := range st.Offsets {
		arr, ok := arrays[rid]
		if !ok {
			return fmt.Errorf("%w: unknown reader %q", ErrBadState, rid)
		}
		if len(offs) != arr.Elements {
			return fmt.Errorf("%w: %d offsets for %d-element array %q", ErrBadState, len(offs), arr.Elements, rid)
		}
	}
	fuser := NewFuser(arrays, s.cfg)
	for rid, perTag := range st.Baseline {
		if _, ok := arrays[rid]; !ok {
			return fmt.Errorf("%w: baseline for unknown reader %q", ErrBadState, rid)
		}
		fuser.round1[rid] = map[string]*pmusic.Spectrum{}
		fuser.monitored[rid] = map[string][]music.Peak{}
		for key, sp := range perTag {
			epc, err := hex.DecodeString(key)
			if err != nil {
				return fmt.Errorf("%w: EPC key %q", ErrBadState, key)
			}
			if sp.GridSize < 2 || len(sp.Power) != sp.GridSize || len(sp.Beam) != sp.GridSize {
				return fmt.Errorf("%w: spectrum shape for %q/%s", ErrBadState, rid, key)
			}
			spec := &pmusic.Spectrum{
				Angles: rf.AngleGrid(sp.GridSize),
				Power:  sp.Power,
				Beam:   sp.Beam,
			}
			fuser.addReference(rid, string(epc), spec)
			for _, p := range st.Monitored[rid][key] {
				if p.Index < 0 || p.Index >= sp.GridSize {
					return fmt.Errorf("%w: peak index %d for %q/%s", ErrBadState, p.Index, rid, key)
				}
				fuser.monitored[rid][string(epc)] = append(fuser.monitored[rid][string(epc)],
					music.Peak{Index: p.Index, Angle: p.Angle, Amplitude: p.Amplitude})
			}
		}
	}
	s.offsets = st.Offsets
	s.fuser = fuser
	return nil
}
