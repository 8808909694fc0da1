package pipeline

import (
	"sort"
	"testing"

	"dwatch/internal/calib"
	"dwatch/internal/channel"
	"dwatch/internal/cmatrix"
	"dwatch/internal/dwatch"
	"dwatch/internal/geom"
	"dwatch/internal/llrp"
	"dwatch/internal/loc"
	"dwatch/internal/pmusic"
	"dwatch/internal/reader"
	"dwatch/internal/rf"
	"dwatch/internal/sim"
)

// genReports simulates the full acquisition chain once (2 baseline
// rounds, then onlineRounds with a target crossing the table) and
// returns the reports in arrival order. Generated once per scenario so
// the synchronous reference and every pipeline run see identical
// bytes.
func genReports(tb testing.TB, sc *sim.Scenario, onlineRounds, snapshots int) []*llrp.ROAccessReport {
	tb.Helper()
	var reports []*llrp.ROAccessReport
	seq := uint32(0)
	send := func(targets []channel.Target) {
		seq++
		for _, rd := range sc.Readers {
			snaps, err := rd.Acquire(sc.Env, sc.Tags, targets, reader.AcquireOptions{Snapshots: snapshots})
			if err != nil {
				tb.Fatal(err)
			}
			rep := &llrp.ROAccessReport{ReaderID: rd.ID, Seq: seq}
			for _, sn := range snaps {
				x, err := calib.Apply(sn.Data, rd.Offsets)
				if err != nil {
					tb.Fatal(err)
				}
				snapshot := make([][]complex128, x.Rows)
				for r := 0; r < x.Rows; r++ {
					snapshot[r] = append([]complex128(nil), x.Data[r*x.Cols:(r+1)*x.Cols]...)
				}
				rep.Reports = append(rep.Reports, llrp.TagReport{EPC: sn.Tag.EPC, Snapshot: snapshot})
			}
			reports = append(reports, rep)
		}
	}
	send(nil)
	send(nil)
	for k := 0; k < onlineRounds; k++ {
		f := float64(k+1) / float64(onlineRounds+1)
		pos := geom.Pt(sc.Cfg.Width*(0.3+0.4*f), sc.Cfg.Depth/2, sc.Cfg.ArrayZ)
		send([]channel.Target{channel.HumanTarget(pos)})
	}
	return reports
}

// syncFixes is the pre-pipeline synchronous reference: the exact
// ingest logic dwatchd/dwatch-replay ran inline, with views built in
// sorted reader order (the pipeline's deterministic order).
func syncFixes(tb testing.TB, sc *sim.Scenario, reports []*llrp.ROAccessReport) map[uint32]loc.Result {
	tb.Helper()
	arrays := map[string]*rf.Array{}
	for _, r := range sc.Readers {
		arrays[r.ID] = r.Array
	}
	fuser := dwatch.NewFuser(arrays, dwatch.Config{})
	rounds := map[string]int{}
	online := map[uint32]map[string]map[string][]float64{}
	fixes := map[uint32]loc.Result{}
	for _, rep := range reports {
		arr := arrays[rep.ReaderID]
		spectra := map[string]*pmusic.Spectrum{}
		for _, tr := range rep.Reports {
			x, err := cmatrix.FromRows(tr.Rows(nil))
			if err != nil {
				continue
			}
			sp, err := pmusic.Compute(x, arr, pmusic.Options{})
			if err != nil {
				continue
			}
			spectra[string(tr.EPC)] = sp
		}
		round := rounds[rep.ReaderID]
		rounds[rep.ReaderID] = round + 1
		if round < 2 {
			for epc, sp := range spectra {
				fuser.AddBaseline(rep.ReaderID, []byte(epc), sp)
			}
			if round == 1 {
				fuser.FinishBaseline(rep.ReaderID)
			}
			continue
		}
		bySeq := online[rep.Seq]
		if bySeq == nil {
			bySeq = map[string]map[string][]float64{}
			online[rep.Seq] = bySeq
		}
		bySeq[rep.ReaderID] = fuser.Evidence(rep.ReaderID, spectra)
		if len(bySeq) < len(sc.Readers) {
			continue
		}
		delete(online, rep.Seq)
		ids := make([]string, 0, len(bySeq))
		for id := range bySeq {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		var views []*loc.View
		for _, id := range ids {
			if v := fuser.BuildView(id, bySeq[id]); v != nil {
				views = append(views, v)
			}
		}
		if len(views) < 2 {
			continue
		}
		res, err := loc.Localize(views, sc.Grid, loc.Options{})
		if err != nil {
			continue
		}
		fixes[rep.Seq] = res
	}
	return fixes
}

// pipelineFixes pumps the reports through a pipeline with the given
// worker count and returns the successful fixes by sequence.
func pipelineFixes(tb testing.TB, sc *sim.Scenario, reports []*llrp.ROAccessReport, workers int) map[uint32]Fix {
	return pipelineFixesSharded(tb, sc, reports, workers, 0)
}

// pipelineFixesSharded is pipelineFixes with an explicit fusion shard
// count (0 = default).
func pipelineFixesSharded(tb testing.TB, sc *sim.Scenario, reports []*llrp.ROAccessReport, workers, shards int) map[uint32]Fix {
	tb.Helper()
	arrays := map[string]*rf.Array{}
	for _, r := range sc.Readers {
		arrays[r.ID] = r.Array
	}
	p, err := newFromConfig(Config{Arrays: arrays, Grid: sc.Grid, Workers: workers, AssemblerShards: shards})
	if err != nil {
		tb.Fatal(err)
	}
	p.Start()
	wait := drainFixes(p)
	for _, rep := range reports {
		if err := p.Ingest(rep); err != nil {
			tb.Fatal(err)
		}
	}
	p.Drain()
	out := map[uint32]Fix{}
	for _, f := range wait() {
		if f.Err == nil {
			out[f.Seq] = f
		}
	}
	return out
}

// TestEndToEndMatchesSynchronous drives simulated reports through the
// full concurrent pipeline and asserts it emits exactly the fixes of
// the synchronous full-spectrum path it replaced: the same position
// and confidence bits, although the pipeline evaluates confirmed
// readers' online tags only at their monitored peaks. The library case
// adds reflector multipath and four readers to the table's two.
func TestEndToEndMatchesSynchronous(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    sim.Config
		rounds int
	}{
		{"table", sim.TableConfig(), 3},
		{"library", sim.LibraryConfig(), 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := sim.Build(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			reports := genReports(t, sc, tc.rounds, 6)
			matchReference(t, syncFixes(t, sc, reports), pipelineFixes(t, sc, reports, 4))
			// The served path ingests decoded reports: each worker
			// decodes a tag's kept wire samples into its own scratch.
			wire := wireReports(t, reports)
			matchReference(t, syncFixes(t, sc, wire), pipelineFixes(t, sc, wire, 4))
		})
	}
}

// matchReference asserts the pipeline emitted exactly the reference's
// fixes, bit for bit.
func matchReference(t *testing.T, want map[uint32]loc.Result, got map[uint32]Fix) {
	t.Helper()
	if len(want) == 0 {
		t.Fatal("reference path produced no fixes — scenario too weak to compare")
	}
	if len(got) != len(want) {
		t.Fatalf("pipeline fixes = %d, reference = %d", len(got), len(want))
	}
	for seq, ref := range want {
		f, ok := got[seq]
		if !ok {
			t.Fatalf("seq %d: fixed by reference, missed by pipeline", seq)
		}
		if f.Pos != ref.Pos || f.Confidence != ref.Confidence {
			t.Fatalf("seq %d: pipeline fix %v conf %v vs reference %v conf %v",
				seq, f.Pos, f.Confidence, ref.Pos, ref.Confidence)
		}
	}
}

// wireReports round-trips reports through the LLRP encoding, as a
// reader connection delivers them: decoded, with samples kept as
// float32 wire bytes.
func wireReports(tb testing.TB, reports []*llrp.ROAccessReport) []*llrp.ROAccessReport {
	tb.Helper()
	out := make([]*llrp.ROAccessReport, len(reports))
	for i, rep := range reports {
		payload, err := rep.Marshal()
		if err != nil {
			tb.Fatal(err)
		}
		if out[i], err = llrp.UnmarshalROAccessReport(payload); err != nil {
			tb.Fatal(err)
		}
	}
	return out
}

// TestWorkerCountIndependence: fixes must be bit-identical no matter
// how many workers race over the spectra.
func TestWorkerCountIndependence(t *testing.T) {
	sc, err := sim.Build(sim.TableConfig())
	if err != nil {
		t.Fatal(err)
	}
	reports := genReports(t, sc, 2, 6)
	one := pipelineFixes(t, sc, reports, 1)
	many := pipelineFixes(t, sc, reports, 8)
	if len(one) != len(many) {
		t.Fatalf("fix counts differ: 1 worker %d, 8 workers %d", len(one), len(many))
	}
	for seq, a := range one {
		b, ok := many[seq]
		if !ok {
			t.Fatalf("seq %d only fixed with 1 worker", seq)
		}
		if a.Pos != b.Pos || a.Confidence != b.Confidence {
			t.Fatalf("seq %d: 1-worker %+v != 8-worker %+v", seq, a, b)
		}
	}
}

// TestShardCountIndependence: fixes must be bit-identical no matter
// how many fusion shards split the sequence space — the shard mapping
// decides only which goroutine fuses a sequence, never the arithmetic
// (views are built in sorted reader order either way).
func TestShardCountIndependence(t *testing.T) {
	sc, err := sim.Build(sim.TableConfig())
	if err != nil {
		t.Fatal(err)
	}
	reports := genReports(t, sc, 2, 6)
	one := pipelineFixesSharded(t, sc, reports, 2, 1)
	many := pipelineFixesSharded(t, sc, reports, 2, 8)
	if len(one) == 0 {
		t.Fatal("no fixes to compare")
	}
	if len(one) != len(many) {
		t.Fatalf("fix counts differ: 1 shard %d, 8 shards %d", len(one), len(many))
	}
	for seq, a := range one {
		b, ok := many[seq]
		if !ok {
			t.Fatalf("seq %d only fixed with 1 shard", seq)
		}
		if a.Pos != b.Pos || a.Confidence != b.Confidence {
			t.Fatalf("seq %d: 1-shard %+v != 8-shard %+v", seq, a, b)
		}
	}
}

// TestRestoredBaselineSkipsBaselineRounds: a pipeline seeded with a
// previously-built fuser treats every report as online evidence and
// reproduces the original online fixes.
func TestRestoredBaselineSkipsBaselineRounds(t *testing.T) {
	sc, err := sim.Build(sim.TableConfig())
	if err != nil {
		t.Fatal(err)
	}
	reports := genReports(t, sc, 2, 6)
	arrays := map[string]*rf.Array{}
	for _, r := range sc.Readers {
		arrays[r.ID] = r.Array
	}

	// First pipeline: full run, keep its fuser and fixes.
	p1, err := newFromConfig(Config{Arrays: arrays, Grid: sc.Grid})
	if err != nil {
		t.Fatal(err)
	}
	p1.Start()
	wait1 := drainFixes(p1)
	for _, rep := range reports {
		if err := p1.Ingest(rep); err != nil {
			t.Fatal(err)
		}
	}
	p1.Drain()
	first := map[uint32]Fix{}
	for _, f := range wait1() {
		if f.Err == nil {
			first[f.Seq] = f
		}
	}

	// Second pipeline: restored fuser, online reports only.
	p2, err := newFromConfig(Config{Arrays: arrays, Grid: sc.Grid, Restored: p1.Fuser()})
	if err != nil {
		t.Fatal(err)
	}
	p2.Start()
	wait2 := drainFixes(p2)
	perReader := map[string]int{}
	for _, rep := range reports {
		if perReader[rep.ReaderID]++; perReader[rep.ReaderID] <= 2 {
			continue // skip the baseline rounds
		}
		if err := p2.Ingest(rep); err != nil {
			t.Fatal(err)
		}
	}
	p2.Drain()
	second := map[uint32]Fix{}
	for _, f := range wait2() {
		if f.Err == nil {
			second[f.Seq] = f
		}
	}
	if st := p2.Stats(); st.BaselinesConfirmed != 0 {
		t.Fatalf("restored pipeline confirmed %d baselines, want 0", st.BaselinesConfirmed)
	}
	if len(first) == 0 {
		t.Fatal("no fixes to compare")
	}
	if len(second) != len(first) {
		t.Fatalf("restored run fixes = %d, original = %d", len(second), len(first))
	}
	for seq, a := range first {
		b := second[seq]
		if a.Pos != b.Pos {
			t.Fatalf("seq %d: restored fix %+v != original %+v", seq, b, a)
		}
	}
}
