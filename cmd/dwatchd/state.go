package main

import (
	"fmt"
	"os"
	"sync"

	"dwatch/internal/dwatch"
	"dwatch/internal/fleet"
	"dwatch/internal/pipeline"
	"dwatch/internal/sim"
)

// persistState wires -state for environment id: an existing file
// restores the baseline, so every reader starts online; otherwise the
// baseline is saved once every reader has confirmed it. WAL replay does
// not make the file redundant: without -wal-dir, or once retention has
// pruned the first baseline rounds, it is the only copy.
func (d *daemon) persistState(id string, cfg sim.Config) ([]pipeline.Option, error) {
	_, sc, err := fleet.Deployment(id, cfg)
	if err != nil {
		return nil, err
	}
	sys := dwatch.New(sc)
	if file, err := os.Open(*statePath); err == nil {
		err = sys.LoadState(file)
		file.Close()
		if err != nil {
			return nil, fmt.Errorf("load state %s: %w", *statePath, err)
		}
		logger.Info("baseline state restored", "path", *statePath)
		return []pipeline.Option{pipeline.WithRestored(sys.Fuser())}, nil
	}

	var mu sync.Mutex
	confirmed, saved := map[string]bool{}, false
	// save snapshots the fuser once every reader confirmed; callers
	// hold it exclusively (the assembler inside OnBaseline, or a
	// drained pipeline).
	save := func(e *fleet.Env) {
		mu.Lock()
		defer mu.Unlock()
		if e == nil || saved || len(confirmed) < len(sc.Readers) {
			return
		}
		saved = true
		sys.SetFuser(e.Pipeline().Fuser())
		file, err := os.Create(*statePath)
		if err == nil {
			err = sys.SaveState(file)
			if cerr := file.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			logger.Error("save state failed", "path", *statePath, "error", err)
			return
		}
		logger.Info("baseline state saved", "path", *statePath)
	}
	// A baseline that WAL replay confirms inside fleet.Add finds no
	// registered environment yet; it is saved once the pipeline drains.
	d.onDrain = append(d.onDrain, func(drained []*fleet.Env) { save(drained[0]) })
	return []pipeline.Option{pipeline.WithOnBaseline(func(reader string, _ int) {
		mu.Lock()
		confirmed[reader] = true
		mu.Unlock()
		save(d.env(id))
	})}, nil
}
