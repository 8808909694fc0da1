// Package sim builds the experimental scenarios of the D-Watch paper:
// the library / laboratory / hall room deployments of Fig. 6-7 (high /
// medium / low multipath; four 8-antenna arrays on the room sides, 21
// tags scattered at 1-1.5 m height, test locations on a 0.5 m lattice)
// and the 2 m × 2 m table deployment of Fig. 20 (two arrays, 26
// perimeter tags) used for multi-target and fist-tracking experiments.
package sim

import (
	"errors"
	"fmt"
	"math/rand"

	"dwatch/internal/channel"
	"dwatch/internal/geom"
	"dwatch/internal/loc"
	"dwatch/internal/reader"
	"dwatch/internal/rf"
	"dwatch/internal/tag"
)

// ErrBadConfig is returned for invalid scenario configuration.
var ErrBadConfig = errors.New("sim: bad configuration")

// Config describes a scenario to build.
type Config struct {
	Name         string
	Width, Depth float64 // room extent in x and y, metres
	Reflectors   []channel.Reflector
	Readers      int     // number of arrays (placed mid-side, round-robin)
	Antennas     int     // elements per array
	Tags         int     // tag population size
	TagZMin      float64 // tag height band (paper: 1-1.5 m)
	TagZMax      float64
	ArrayZ       float64 // array height (paper: 1.25 m)
	Cell         float64 // localization grid cell (paper: 0.05 m rooms)
	NoiseStd     float64 // per-element sample noise (0 = channel default)
	Seed         int64
	TablePreset  bool // tags on two perimeter sides instead of random
	TableTagZ    float64
	// MinTagArrayDist rejects tag placements closer than this to any
	// array centre (0 = 2.0 m). Inside ~2 m the spherical wavefront
	// curvature across the 1.14 m aperture breaks the plane-wave MUSIC
	// model, which matches deployment guidance for real arrays.
	MinTagArrayDist float64
	// SecondOrder enables two-bounce specular paths in the channel —
	// thicker multipath at the cost of ~reflector² path enumeration.
	SecondOrder bool
	// FrequencyHz sets the carrier (0 = the paper's 922.5 MHz UHF RFID
	// band). The conclusion notes D-Watch "can be easily extended to
	// Wi-Fi and other RF-based systems": setting e.g. 5.18 GHz models a
	// Wi-Fi AP array (λ/2 spacing scales automatically, shrinking the
	// aperture ~5.6× and pushing the near-field boundary inward).
	FrequencyHz float64
	// SLO, when set, declares the deployment's ingest→fix latency
	// objective; the fleet registers a dwatch_slo_* tracker for the
	// env. Nil disables SLO accounting.
	SLO *SLOConfig
}

// SLOConfig is a deployment's latency objective as declared in its
// JSON config ("slo" block).
type SLOConfig struct {
	// TargetMS is the per-fix ingest→fix latency target in
	// milliseconds (0 = 250ms default).
	TargetMS float64 `json:"target_ms"`
	// Objective is the fraction of fixes that must meet the target
	// (0 = 0.99 default).
	Objective float64 `json:"objective"`
}

// Scenario is a fully instantiated simulation world.
type Scenario struct {
	Name    string
	Cfg     Config
	Env     *channel.Env
	Readers []*reader.Reader
	Tags    *tag.Population
	Grid    loc.Grid
	Rng     *rand.Rand
}

// wallCoeffs for preset construction.
const (
	shelfCoeff = 0.75 // metal+wood book shelves (library)
	benchCoeff = 0.55 // lab benches, chambers, displays
	wallCoeff  = 0.30 // bare plaster/concrete walls
)

// perimeterWalls returns the room's four bounding walls — every real
// room has them, and their specular bounces are a large share of the
// "bad" multipaths D-Watch feeds on. Arrays sit exactly on the walls,
// so each array simply gets no bounce off its own wall (degenerate
// geometry), which matches a wall-mounted panel.
func perimeterWalls(w, d, coeff float64) []channel.Reflector {
	return []channel.Reflector{
		{Wall: geom.NewWall(0, 0, w, 0, 0, 3), Coeff: coeff},
		{Wall: geom.NewWall(w, 0, w, d, 0, 3), Coeff: coeff},
		{Wall: geom.NewWall(w, d, 0, d, 0, 3), Coeff: coeff},
		{Wall: geom.NewWall(0, d, 0, 0, 0, 3), Coeff: coeff},
	}
}

// LibraryConfig is the rich-multipath library of Fig. 6(b)/7(b):
// 7 m × 10 m with rows of 2.5 m metal/wood shelves.
func LibraryConfig() Config {
	refl := perimeterWalls(7, 10, 0.35)
	// Four shelf rows along x at different depths, split into segments
	// with aisles so reflection paths vary across the room.
	for i, y := range []float64{2.0, 4.0, 6.0, 8.0} {
		x0 := 0.5 + 0.3*float64(i%2)
		refl = append(refl,
			channel.Reflector{Wall: geom.NewWall(x0, y, x0+2.4, y, 0, 2.5), Coeff: shelfCoeff},
			channel.Reflector{Wall: geom.NewWall(x0+3.2, y, x0+5.6, y, 0, 2.5), Coeff: shelfCoeff},
		)
	}
	// Two side shelves along y.
	refl = append(refl,
		channel.Reflector{Wall: geom.NewWall(0.3, 1.0, 0.3, 5.0, 0, 2.5), Coeff: shelfCoeff},
		channel.Reflector{Wall: geom.NewWall(6.7, 5.0, 6.7, 9.0, 0, 2.5), Coeff: shelfCoeff},
	)
	return Config{
		Name: "library", Width: 7, Depth: 10, Reflectors: refl,
		Readers: 4, Antennas: 8, Tags: 21,
		TagZMin: 1.0, TagZMax: 1.5, ArrayZ: 1.25, Cell: 0.05, Seed: 1,
	}
}

// LaboratoryConfig is the medium-multipath 9 m × 12 m laboratory of
// Fig. 6(a)/7(a) with scattered benches and test chambers.
func LaboratoryConfig() Config {
	refl := perimeterWalls(9, 12, 0.35)
	refl = append(refl,
		channel.Reflector{Wall: geom.NewWall(1.0, 3.0, 4.0, 3.0, 0, 1.2), Coeff: benchCoeff},
		channel.Reflector{Wall: geom.NewWall(5.5, 5.0, 8.0, 5.0, 0, 1.2), Coeff: benchCoeff},
		channel.Reflector{Wall: geom.NewWall(2.0, 8.5, 5.0, 8.5, 0, 1.8), Coeff: benchCoeff},
		channel.Reflector{Wall: geom.NewWall(8.2, 7.0, 8.2, 10.0, 0, 1.8), Coeff: benchCoeff},
		channel.Reflector{Wall: geom.NewWall(0.5, 6.0, 0.5, 9.0, 0, 1.5), Coeff: benchCoeff},
	)
	return Config{
		Name: "laboratory", Width: 9, Depth: 12, Reflectors: refl,
		Readers: 4, Antennas: 8, Tags: 21,
		TagZMin: 1.0, TagZMax: 1.5, ArrayZ: 1.25, Cell: 0.05, Seed: 2,
	}
}

// HallConfig is the low-multipath 7.2 m × 10.4 m empty hall of
// Fig. 6(c)/7(c): only the bare side walls reflect weakly.
func HallConfig() Config {
	refl := perimeterWalls(7.2, 10.4, wallCoeff)
	return Config{
		Name: "hall", Width: 7.2, Depth: 10.4, Reflectors: refl,
		Readers: 4, Antennas: 8, Tags: 21,
		TagZMin: 1.0, TagZMax: 1.5, ArrayZ: 1.25, Cell: 0.05, Seed: 3,
	}
}

// TableConfig is the 2 m × 2 m table of Fig. 20: two small arrays at
// the mid-bottom and mid-right edges, 26 tags along the other two
// sides, 2 cm grid.
func TableConfig() Config {
	return Config{
		Name: "table", Width: 2, Depth: 2,
		Readers: 2, Antennas: 8, Tags: 26,
		ArrayZ: 0.85, Cell: 0.02, Seed: 4,
		TablePreset: true, TableTagZ: 0.85,
		TagZMin: 0.85, TagZMax: 0.85,
	}
}

// Preset returns the named deployment preset: library, laboratory (or
// lab), hall, or table. The config's Name is the canonical spelling.
func Preset(name string) (Config, error) {
	switch name {
	case "library":
		return LibraryConfig(), nil
	case "laboratory", "lab":
		return LaboratoryConfig(), nil
	case "hall":
		return HallConfig(), nil
	case "table":
		return TableConfig(), nil
	default:
		return Config{}, fmt.Errorf("unknown environment %q (want library, laboratory, hall, or table)", name)
	}
}

// Build instantiates a scenario from a config.
func Build(cfg Config) (*Scenario, error) {
	if cfg.Width <= 0 || cfg.Depth <= 0 {
		return nil, fmt.Errorf("%w: extent %vx%v", ErrBadConfig, cfg.Width, cfg.Depth)
	}
	if cfg.Readers < 1 || cfg.Antennas < 2 || cfg.Tags < 1 {
		return nil, fmt.Errorf("%w: readers=%d antennas=%d tags=%d", ErrBadConfig, cfg.Readers, cfg.Antennas, cfg.Tags)
	}
	if cfg.Cell <= 0 {
		return nil, fmt.Errorf("%w: cell %v", ErrBadConfig, cfg.Cell)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	env := channel.NewEnv(cfg.Reflectors)
	env.SecondOrder = cfg.SecondOrder

	readers, err := placeReaders(cfg, rng)
	if err != nil {
		return nil, err
	}

	var pop *tag.Population
	if cfg.TablePreset {
		pop, err = tag.OnPerimeter(cfg.Tags, geom.Pt2(0, 0), cfg.Width, cfg.TableTagZ, rng)
		if err != nil {
			return nil, err
		}
	} else {
		minDist := cfg.MinTagArrayDist
		if minDist == 0 {
			minDist = 2.0
		}
		// Rejection-sample tag positions so every tag keeps minDist to
		// every array centre (and stays off the very room edges).
		pts := make([]geom.Point, 0, cfg.Tags)
		for attempts := 0; len(pts) < cfg.Tags && attempts < 10000; attempts++ {
			p := geom.Pt(
				0.5+rng.Float64()*(cfg.Width-1),
				0.5+rng.Float64()*(cfg.Depth-1),
				cfg.TagZMin+rng.Float64()*(cfg.TagZMax-cfg.TagZMin),
			)
			ok := true
			for _, r := range readers {
				if r.Array.Center().Dist2D(p) < minDist {
					ok = false
					break
				}
			}
			if ok {
				pts = append(pts, p)
			}
		}
		if len(pts) < cfg.Tags {
			return nil, fmt.Errorf("%w: cannot place %d tags %.1f m from all arrays", ErrBadConfig, cfg.Tags, minDist)
		}
		pop, err = tag.New(pts, rng)
		if err != nil {
			return nil, err
		}
	}

	return &Scenario{
		Name:    cfg.Name,
		Cfg:     cfg,
		Env:     env,
		Readers: readers,
		Tags:    pop,
		Grid: loc.Grid{
			XMin: 0, XMax: cfg.Width, YMin: 0, YMax: cfg.Depth,
			Cell: cfg.Cell, Z: cfg.ArrayZ,
		},
		Rng: rng,
	}, nil
}

// placeReaders puts arrays at the middle of the room sides (bottom,
// left, top, right in order), axes along the wall so the room is
// broadside.
func placeReaders(cfg Config, rng *rand.Rand) ([]*reader.Reader, error) {
	lambda := rf.DefaultWavelength
	if cfg.FrequencyHz > 0 {
		lambda = rf.Wavelength(cfg.FrequencyHz)
	}
	apertureX := float64(cfg.Antennas-1) * lambda / 2
	type place struct {
		origin geom.Point
		axis   geom.Point
	}
	places := []place{
		{geom.Pt(cfg.Width/2-apertureX/2, 0, cfg.ArrayZ), geom.Pt2(1, 0)},         // bottom
		{geom.Pt(0, cfg.Depth/2-apertureX/2, cfg.ArrayZ), geom.Pt2(0, 1)},         // left
		{geom.Pt(cfg.Width/2-apertureX/2, cfg.Depth, cfg.ArrayZ), geom.Pt2(1, 0)}, // top
		{geom.Pt(cfg.Width, cfg.Depth/2-apertureX/2, cfg.ArrayZ), geom.Pt2(0, 1)}, // right
	}
	if cfg.Readers == 2 {
		// Table preset: mid-bottom and mid-right (Fig. 20).
		places = []place{places[0], places[3]}
	}
	out := make([]*reader.Reader, 0, cfg.Readers)
	for i := 0; i < cfg.Readers; i++ {
		p := places[i%len(places)]
		arr, err := rf.NewArrayFull(p.origin, p.axis, cfg.Antennas, lambda/2, lambda)
		if err != nil {
			return nil, err
		}
		r, err := reader.New(fmt.Sprintf("reader-%d", i+1), arr, rng, reader.Options{NoiseStd: cfg.NoiseStd})
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// TestLocations returns the lattice of test positions the paper uses
// (0.5 m spacing, inset from the walls), at target standing height.
func (s *Scenario) TestLocations(spacing float64) []geom.Point {
	if spacing <= 0 {
		spacing = 0.5
	}
	var out []geom.Point
	for y := 1.0; y <= s.Cfg.Depth-1.0+1e-9; y += spacing {
		for x := 1.0; x <= s.Cfg.Width-1.0+1e-9; x += spacing {
			out = append(out, geom.Pt(x, y, s.Cfg.ArrayZ))
		}
	}
	return out
}

// AddReflectors appends n extra reflectors at pseudo-random interior
// positions (the Fig. 16 experiment adds laptops/metal sheets to the
// hall). Each is a 0.5-1.5 m facet with a strong coefficient.
func (s *Scenario) AddReflectors(n int) {
	for i := 0; i < n; i++ {
		cx := 1 + s.Rng.Float64()*(s.Cfg.Width-2)
		cy := 1 + s.Rng.Float64()*(s.Cfg.Depth-2)
		l := 0.5 + s.Rng.Float64()
		if s.Rng.Intn(2) == 0 {
			s.Env.Reflectors = append(s.Env.Reflectors, channel.Reflector{
				Wall: geom.NewWall(cx-l/2, cy, cx+l/2, cy, 0.5, 2.0), Coeff: 0.7,
			})
		} else {
			s.Env.Reflectors = append(s.Env.Reflectors, channel.Reflector{
				Wall: geom.NewWall(cx, cy-l/2, cx, cy+l/2, 0.5, 2.0), Coeff: 0.7,
			})
		}
	}
}
