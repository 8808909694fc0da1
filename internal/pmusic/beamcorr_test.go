package pmusic

import (
	"math"
	"math/rand"
	"testing"

	"dwatch/internal/music"
	"dwatch/internal/rf"
)

// The correlation-domain beamformer tolerance contract: beamPowerCorr
// computes the same Eq. 13 quantity as the time-domain beamPowerAt with
// a different floating-point association order, so the results agree to
// a relative ~1e-12, not bit-for-bit. This is the documented tolerance
// for the hot-path beam stage (DESIGN.md "Scaling the hot path").
func TestBeamCorrMatchesTimeDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, m := range []int{4, 6, 8, 12} {
		arr := testArray(t, m)
		for trial := 0; trial < 4; trial++ {
			x := synth(arr, []float64{0.7, 2.0}, []float64{1, 0.6}, 10, 0.05, rng)
			grid := rf.AngleGrid(361)

			want, err := BeamPower(x, arr, grid)
			if err != nil {
				t.Fatal(err)
			}

			r, err := music.Correlation(x)
			if err != nil {
				t.Fatal(err)
			}
			tab, err := rf.SteeringTableFor(arr, len(grid), music.DefaultSubarray(m))
			if err != nil {
				t.Fatal(err)
			}
			got := make([]float64, len(grid))
			beamPowerCorr(got, r, tab, nil)

			for i := range want {
				scale := math.Abs(want[i])
				if scale < 1e-30 {
					scale = 1e-30
				}
				if rel := math.Abs(got[i]-want[i]) / scale; rel > 1e-11 {
					t.Fatalf("m=%d trial %d angle %d: corr-domain %v vs time-domain %v (rel %v)",
						m, trial, i, got[i], want[i], rel)
				}
			}
		}
	}
}

// TestComputeBeamWithinTolerance pins the same contract end to end:
// Spectrum.Beam from Compute (correlation domain) tracks the BeamPower
// reference within the documented relative tolerance.
func TestComputeBeamWithinTolerance(t *testing.T) {
	arr := testArray(t, 8)
	rng := rand.New(rand.NewSource(11))
	x := synth(arr, []float64{1.1, 2.4}, []float64{1, 0.4}, 12, 0.05, rng)
	sp, err := Compute(x, arr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := BeamPower(x, arr, sp.Angles)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		scale := math.Abs(ref[i])
		if scale < 1e-30 {
			scale = 1e-30
		}
		if rel := math.Abs(sp.Beam[i]-ref[i]) / scale; rel > 1e-11 {
			t.Fatalf("angle %d: Beam %v vs reference %v (rel %v)", i, sp.Beam[i], ref[i], rel)
		}
	}
}
