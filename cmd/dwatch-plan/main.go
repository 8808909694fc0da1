// Command dwatch-plan is the deployment planner Section 8's deadzone
// discussion implies: given an environment, it maps which positions a
// device-free target could stand in without blocking paths toward at
// least two readers (undetectable "deadzones"), and shows how adding
// tags shrinks them — the paper's prescribed mitigation.
//
// Usage:
//
//	dwatch-plan [-env hall] [-cell 0.25] [-min-readers 2] [-tags-sweep "21,31,41"]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dwatch/internal/channel"
	"dwatch/internal/geom"
	"dwatch/internal/sim"
)

func main() {
	env := flag.String("env", "hall", "environment preset: library, laboratory (lab), hall, table")
	cell := flag.Float64("cell", 0.25, "analysis cell size (m)")
	minReaders := flag.Int("min-readers", 2, "readers required for a 2-D fix")
	sweep := flag.String("tags-sweep", "21,31,41", "tag counts to compare")
	flag.Parse()

	var counts []int
	for _, part := range strings.Split(*sweep, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			fatal(fmt.Errorf("bad tag count %q", part))
		}
		counts = append(counts, n)
	}

	for i, n := range counts {
		cfg, err := sim.Preset(*env)
		if err != nil {
			fatal(err)
		}
		cfg.Tags = n
		sc, err := sim.Build(cfg)
		if err != nil {
			fatal(err)
		}
		template := channel.HumanTarget(geom.Pt(0, 0, 1.25))
		m, err := sc.CoverageMap(*cell, template)
		if err != nil {
			fatal(err)
		}
		rate := m.CoverageRate(*minReaders)
		dead := len(m.Deadzones(*minReaders))
		fmt.Printf("env %s, %d tags: %.0f%% of cells see ≥%d readers (%d deadzone cells)\n",
			cfg.Name, n, 100*rate, *minReaders, dead)
		if i == 0 {
			fmt.Println("\nreader-count map (digits = readers with a blocked path; '.' = invisible):")
			fmt.Println(m.Render())
		}
	}
	fmt.Println("(Section 8: \"increase the number of tags to reduce the amount of deadzones\")")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dwatch-plan:", err)
	os.Exit(1)
}
