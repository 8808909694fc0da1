package sim

import (
	"errors"
	"testing"
)

func TestPreset(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"library", "library"},
		{"laboratory", "laboratory"},
		{"lab", "laboratory"},
		{"hall", "hall"},
		{"table", "table"},
	} {
		cfg, err := Preset(tc.in)
		if err != nil {
			t.Fatalf("Preset(%q): %v", tc.in, err)
		}
		if cfg.Name != tc.want {
			t.Errorf("Preset(%q).Name = %q, want %q", tc.in, cfg.Name, tc.want)
		}
	}
	if _, err := Preset("atrium"); err == nil {
		t.Fatal("Preset of an unknown name succeeded")
	}
}

func TestBuildPresets(t *testing.T) {
	for _, cfg := range []Config{LibraryConfig(), LaboratoryConfig(), HallConfig(), TableConfig()} {
		sc, err := Build(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if len(sc.Readers) != cfg.Readers {
			t.Errorf("%s: readers = %d", cfg.Name, len(sc.Readers))
		}
		if sc.Tags.Len() != cfg.Tags {
			t.Errorf("%s: tags = %d", cfg.Name, sc.Tags.Len())
		}
		// All tags inside the room.
		for _, tg := range sc.Tags.Tags {
			if tg.Pos.X < -1e-9 || tg.Pos.X > cfg.Width+1e-9 || tg.Pos.Y < -1e-9 || tg.Pos.Y > cfg.Depth+1e-9 {
				t.Errorf("%s: tag outside room: %v", cfg.Name, tg.Pos)
			}
		}
		// All array elements inside or on the room boundary.
		for _, r := range sc.Readers {
			for m := 0; m < r.Array.Elements; m++ {
				p := r.Array.ElementPos(m)
				if p.X < -1e-9 || p.X > cfg.Width+1e-9 || p.Y < -1e-9 || p.Y > cfg.Depth+1e-9 {
					t.Errorf("%s: antenna outside room: %v", cfg.Name, p)
				}
			}
		}
		if err := sc.Grid.Validate(); err != nil {
			t.Errorf("%s: grid: %v", cfg.Name, err)
		}
	}
}

func TestMultipathRichnessOrdering(t *testing.T) {
	lib, _ := Build(LibraryConfig())
	lab, _ := Build(LaboratoryConfig())
	hall, _ := Build(HallConfig())
	if !(len(lib.Env.Reflectors) > len(lab.Env.Reflectors) && len(lab.Env.Reflectors) > len(hall.Env.Reflectors)) {
		t.Errorf("reflector ordering: lib=%d lab=%d hall=%d",
			len(lib.Env.Reflectors), len(lab.Env.Reflectors), len(hall.Env.Reflectors))
	}
}

func TestBuildValidation(t *testing.T) {
	bad := LibraryConfig()
	bad.Width = 0
	if _, err := Build(bad); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero width: %v", err)
	}
	bad2 := LibraryConfig()
	bad2.Antennas = 1
	if _, err := Build(bad2); !errors.Is(err, ErrBadConfig) {
		t.Errorf("1 antenna: %v", err)
	}
	bad3 := LibraryConfig()
	bad3.Cell = -1
	if _, err := Build(bad3); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad cell: %v", err)
	}
}

func TestTestLocations(t *testing.T) {
	sc, err := Build(HallConfig())
	if err != nil {
		t.Fatal(err)
	}
	locs := sc.TestLocations(0.5)
	// Hall: 7.2 x 10.4 m, inset 1 m: 11 x 18 lattice points at least.
	if len(locs) < 60 {
		t.Errorf("test locations = %d, want roughly the paper's 75", len(locs))
	}
	for _, p := range locs {
		if p.X < 1 || p.X > sc.Cfg.Width-1 || p.Y < 1 || p.Y > sc.Cfg.Depth-1 {
			t.Errorf("test location outside inset: %v", p)
		}
	}
	if got := sc.TestLocations(0); len(got) != len(locs) {
		t.Errorf("default spacing mismatch: %d vs %d", len(got), len(locs))
	}
}

func TestAddReflectors(t *testing.T) {
	sc, err := Build(HallConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := len(sc.Env.Reflectors)
	sc.AddReflectors(6)
	if len(sc.Env.Reflectors) != before+6 {
		t.Errorf("reflectors = %d, want %d", len(sc.Env.Reflectors), before+6)
	}
}

func TestTablePreset(t *testing.T) {
	sc, err := Build(TableConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Readers) != 2 {
		t.Fatalf("readers = %d", len(sc.Readers))
	}
	if sc.Grid.Cell != 0.02 {
		t.Errorf("cell = %v, want the paper's 2 cm", sc.Grid.Cell)
	}
	// Two arrays must be non-collinear (bottom edge and right edge).
	a0 := sc.Readers[0].Array.Axis
	a1 := sc.Readers[1].Array.Axis
	if a0.Cross(a1).Norm() < 0.5 {
		t.Errorf("table arrays collinear: %v, %v", a0, a1)
	}
}

func TestScenarioDeterministicBySeed(t *testing.T) {
	a, err := Build(HallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(HallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Tags.Tags {
		if a.Tags.Tags[i].Pos != b.Tags.Tags[i].Pos {
			t.Fatal("same seed produced different tag layouts")
		}
	}
	for i := range a.Readers {
		for m := range a.Readers[i].Offsets {
			if a.Readers[i].Offsets[m] != b.Readers[i].Offsets[m] {
				t.Fatal("same seed produced different offsets")
			}
		}
	}
}
