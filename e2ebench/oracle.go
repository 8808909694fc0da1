package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"dwatch/internal/llrp"
	"dwatch/internal/pipeline"
	"dwatch/internal/replay"
	"dwatch/internal/wal"
)

// refFix is the reference outcome of one round: the fields a served
// Position must reproduce bit for bit.
type refFix struct {
	x, y, conf float64
	views      int
}

// reference is the oracle for one workload: every round's expected
// fix, keyed by (env, seq), plus each environment's parity hash.
type reference struct {
	fixes  map[roundKey]refFix
	parity []string
}

// writeWAL appends rounds [0, n) of a stream to a WAL at dir, each
// round's reports in reader order — the order the SUT receives them.
func writeWAL(dir string, st *stream, n int) error {
	w, err := wal.Open(dir, wal.WithFsync(wal.FsyncNever))
	if err != nil {
		return err
	}
	at := time.Unix(0, 0)
	for _, rd := range st.rounds[:n] {
		for _, p := range rd.reports {
			if _, err := w.Append(at, llrp.MsgROAccessReport, p); err != nil {
				w.Close()
				return fmt.Errorf("oracle wal %s: %w", dir, err)
			}
		}
	}
	return w.Close()
}

// buildReference writes each stream's first n rounds to a WAL under
// root/<env> and replays it once through replay.Run.
func buildReference(root string, streams []*stream, n int) (*reference, error) {
	ref := &reference{fixes: map[roundKey]refFix{}}
	for e, st := range streams {
		dir := filepath.Join(root, st.spec.id)
		if err := writeWAL(dir, st, n); err != nil {
			return nil, err
		}
		src, err := replay.OpenWAL(dir)
		if err != nil {
			return nil, err
		}
		var fixes []pipeline.Fix
		sum, err := replay.Run(src, st.dep, replay.Options{OnFix: func(f pipeline.Fix) { fixes = append(fixes, f) }})
		src.Close()
		if err != nil {
			return nil, fmt.Errorf("oracle replay %s: %w", st.spec.id, err)
		}
		if sum.Damage != nil || sum.SourceError != "" || sum.BadReports > 0 || sum.SkippedUnknown > 0 {
			return nil, fmt.Errorf("oracle replay %s: damage=%v source=%q bad=%d unknown=%d",
				st.spec.id, sum.Damage, sum.SourceError, sum.BadReports, sum.SkippedUnknown)
		}
		for _, f := range fixes {
			ref.fixes[roundKey{e, f.Seq}] = refFix{f.Pos.X, f.Pos.Y, f.Confidence, f.Views}
		}
		ref.parity = append(ref.parity, st.spec.id+"="+sum.FixParity)
	}
	return ref, nil
}

// frame is one position as the watcher received it.
type frame struct {
	key        roundKey
	x, y, conf float64
	views      int
	traceID    string
	pub, recv  int64 // Position.Time and watcher receipt, Unix ns
}

// verdict is the oracle's account of one epoch of delivery.
type verdict struct {
	expected   int // reference fixes the epoch should deliver
	missing    int
	mismatched int
	duplicate  int
	unexpected int // a fix for a round the reference says misses
}

func (v verdict) failed() int { return v.missing + v.mismatched + v.duplicate + v.unexpected }

func (v verdict) String() string {
	return fmt.Sprintf("expected %d, missing %d, mismatched %d, duplicate %d, unexpected %d",
		v.expected, v.missing, v.mismatched, v.duplicate, v.unexpected)
}

// check compares the frames of one epoch against the reference for the
// rounds in want: every wanted reference fix must arrive exactly once
// with identical x/y/confidence bits and view count, and nothing else
// may arrive.
func (r *reference) check(frames []frame, want []roundKey) verdict {
	var v verdict
	wanted := map[roundKey]bool{}
	for _, k := range want {
		if _, ok := r.fixes[k]; ok {
			wanted[k] = true
			v.expected++
		}
	}
	seen := map[roundKey]bool{}
	for _, f := range frames {
		ref, ok := r.fixes[f.key]
		switch {
		case !ok || !wanted[f.key]:
			v.unexpected++
			continue
		case seen[f.key]:
			v.duplicate++
			continue
		}
		seen[f.key] = true
		if math.Float64bits(f.x) != math.Float64bits(ref.x) ||
			math.Float64bits(f.y) != math.Float64bits(ref.y) ||
			math.Float64bits(f.conf) != math.Float64bits(ref.conf) ||
			f.views != ref.views {
			v.mismatched++
		}
	}
	v.missing = v.expected - len(seen)
	return v
}
