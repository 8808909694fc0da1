// Command dwatch-sim runs one D-Watch localization scenario end to end:
// build an environment, calibrate the readers wirelessly, collect the
// baseline, place device-free targets and localize them.
//
// Usage:
//
//	dwatch-sim [-env library|laboratory|hall|table] [-antennas N] [-tags N]
//	           [-seed N] [-targets "x,y;x,y;..."] [-multi] [-verbose]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dwatch/internal/channel"
	"dwatch/internal/dwatch"
	"dwatch/internal/geom"
	"dwatch/internal/loc"
	"dwatch/internal/rf"
	"dwatch/internal/sim"
)

func main() {
	env := flag.String("env", "hall", "environment preset: library, laboratory (lab), hall, table")
	configPath := flag.String("config", "", "JSON deployment file (overrides -env)")
	antennas := flag.Int("antennas", 0, "antennas per array (0 = preset default)")
	tags := flag.Int("tags", 0, "tag population size (0 = preset default)")
	seed := flag.Int64("seed", 0, "simulation seed (0 = preset default)")
	targetsFlag := flag.String("targets", "", `device-free target positions as "x,y;x,y"; empty = room centre`)
	multi := flag.Bool("multi", false, "multi-target localization")
	verbose := flag.Bool("verbose", false, "print per-reader evidence")
	heatmap := flag.Bool("heatmap", false, "render the likelihood field (Fig. 19 style)")
	flag.Parse()

	var cfg sim.Config
	var err error
	if *configPath != "" {
		f, ferr := os.Open(*configPath)
		if ferr != nil {
			fatal(ferr)
		}
		cfg, err = sim.LoadConfig(f)
		f.Close()
	} else {
		cfg, err = sim.Preset(*env)
	}
	if err != nil {
		fatal(err)
	}
	if *antennas > 0 {
		cfg.Antennas = *antennas
	}
	if *tags > 0 {
		cfg.Tags = *tags
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}

	sc, err := sim.Build(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("environment %q: %.1f×%.1f m, %d readers × %d antennas, %d tags, %d reflectors\n",
		sc.Name, cfg.Width, cfg.Depth, len(sc.Readers), cfg.Antennas, sc.Tags.Len(), len(sc.Env.Reflectors))

	s := dwatch.New(sc)
	fmt.Print("wireless phase calibration... ")
	if err := s.Calibrate(); err != nil {
		fatal(err)
	}
	fmt.Println("done")
	fmt.Print("baseline AoA collection... ")
	if err := s.CollectBaseline(); err != nil {
		fatal(err)
	}
	fmt.Println("done")

	positions, err := parseTargets(*targetsFlag, cfg)
	if err != nil {
		fatal(err)
	}
	var scene []channel.Target
	for _, p := range positions {
		if cfg.Name == "table" {
			scene = append(scene, channel.BottleTarget(p, 0.75))
		} else {
			scene = append(scene, channel.HumanTarget(p))
		}
		fmt.Printf("target at (%.2f, %.2f)\n", p.X, p.Y)
	}

	if *verbose {
		views, err := s.Views(scene)
		if err != nil {
			fatal(err)
		}
		for i, v := range views {
			peak, idx := 0.0, 0
			for j, d := range v.Drop {
				if d > peak {
					peak, idx = d, j
				}
			}
			fmt.Printf("  reader %d: max drop %.2f at %.1f°\n", i+1, peak, rf.Deg(v.Angles[idx]))
		}
	}

	if *heatmap {
		views, err := s.Views(scene)
		if err != nil {
			fatal(err)
		}
		h, err := loc.ComputeHeatmap(views, sc.Grid, sc.Cfg.Width/60)
		if err != nil {
			fatal(err)
		}
		fmt.Println("likelihood heatmap (X = true target):")
		fmt.Print(h.Render(positions...))
	}

	if *multi {
		fixes, err := s.LocateMulti(scene, len(scene), 0.3)
		if err != nil {
			fatal(err)
		}
		for i, f := range fixes {
			fmt.Printf("fix %d: (%.2f, %.2f)  confidence %.2f\n", i+1, f.Pos.X, f.Pos.Y, f.Confidence)
		}
		if len(fixes) == 0 {
			fmt.Println("no targets localized")
		}
		return
	}
	res, err := s.LocateRobust(scene, 3)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("fix: (%.2f, %.2f)  confidence %.2f\n", res.Pos.X, res.Pos.Y, res.Confidence)
	if len(positions) == 1 {
		fmt.Printf("error: %.1f cm\n", 100*res.Pos.Dist2D(positions[0]))
	}
}

func parseTargets(s string, cfg sim.Config) ([]geom.Point, error) {
	z := cfg.ArrayZ
	if s == "" {
		return []geom.Point{geom.Pt(cfg.Width/2, cfg.Depth/2, z)}, nil
	}
	var out []geom.Point
	for _, part := range strings.Split(s, ";") {
		xy := strings.Split(strings.TrimSpace(part), ",")
		if len(xy) != 2 {
			return nil, fmt.Errorf("bad target %q, want x,y", part)
		}
		x, err := strconv.ParseFloat(strings.TrimSpace(xy[0]), 64)
		if err != nil {
			return nil, err
		}
		y, err := strconv.ParseFloat(strings.TrimSpace(xy[1]), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, geom.Pt(x, y, z))
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dwatch-sim:", err)
	os.Exit(1)
}
