package pipeline

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dwatch/internal/llrp"
	"dwatch/internal/pmusic"
	"dwatch/internal/rf"
	"dwatch/internal/sim"
)

// testArrays builds the table scenario's two reader arrays.
func testArrays(tb testing.TB) (map[string]*rf.Array, *sim.Scenario) {
	tb.Helper()
	sc, err := sim.Build(sim.TableConfig())
	if err != nil {
		tb.Fatal(err)
	}
	arrays := map[string]*rf.Array{}
	for _, r := range sc.Readers {
		arrays[r.ID] = r.Array
	}
	return arrays, sc
}

// testConfig is a minimal valid config over the table scenario.
func testConfig(tb testing.TB) (Config, *sim.Scenario) {
	arrays, sc := testArrays(tb)
	return Config{Arrays: arrays, Grid: sc.Grid}, sc
}

// taglessReport builds a report with no tag data — enough to drive
// round accounting and sequence membership without spectrum work.
func taglessReport(reader string, seq uint32) *llrp.ROAccessReport {
	return &llrp.ROAccessReport{ReaderID: reader, Seq: seq}
}

// fakeReport builds a report with n placeholder tags; pair it with a
// stubbed compute.
func fakeReport(reader string, seq uint32, n int) *llrp.ROAccessReport {
	rep := &llrp.ROAccessReport{ReaderID: reader, Seq: seq}
	for i := 0; i < n; i++ {
		rep.Reports = append(rep.Reports, llrp.TagReport{
			EPC:      []byte(fmt.Sprintf("tag-%d", i)),
			Snapshot: [][]complex128{{1}},
		})
	}
	return rep
}

// drainFixes consumes the fixes channel in the background and returns
// a func that waits for the channel to close and yields the fixes.
func drainFixes(p *Pipeline) func() []Fix {
	ch := make(chan []Fix, 1)
	go func() {
		var out []Fix
		for f := range p.Fixes() {
			out = append(out, f)
		}
		ch <- out
	}()
	return func() []Fix { return <-ch }
}

func TestNewValidates(t *testing.T) {
	if _, err := newFromConfig(Config{}); err == nil {
		t.Fatal("New accepted empty config")
	}
	arrays, sc := testArrays(t)
	if _, err := newFromConfig(Config{Arrays: arrays}); err == nil {
		t.Fatal("New accepted zero grid")
	}
	if _, err := newFromConfig(Config{Arrays: arrays, Grid: sc.Grid}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestIngestUnknownReaderRejected(t *testing.T) {
	cfg, _ := testConfig(t)
	p, err := newFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	wait := drainFixes(p)
	if err := p.Ingest(taglessReport("nobody", 1)); !errors.Is(err, ErrUnknownReader) {
		t.Fatalf("unknown reader: err = %v, want ErrUnknownReader", err)
	}
	p.Drain()
	wait()
	st := p.Stats()
	if st.ReportsRejected != 1 || st.ReportsIn != 0 {
		t.Fatalf("rejected/in = %d/%d, want 1/0", st.ReportsRejected, st.ReportsIn)
	}
}

func TestIngestAfterDrainFails(t *testing.T) {
	cfg, sc := testConfig(t)
	p, err := newFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	wait := drainFixes(p)
	p.Drain()
	wait()
	if err := p.Ingest(taglessReport(sc.Readers[0].ID, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("ingest after drain: err = %v, want ErrClosed", err)
	}
}

// TestOverloadDropOldest floods a one-worker pipeline whose compute is
// parked, and checks that ingest never blocks, the oldest snapshots
// are shed, and every report still completes through the assembler.
func TestOverloadDropOldest(t *testing.T) {
	cfg, sc := testConfig(t)
	cfg.Workers = 1
	cfg.QueueSize = 2
	cfg.Overload = DropOldest
	cfg.ExpectReaders = 1
	p, err := newFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	p.compute = func([][]complex128, *rf.Array, pmusic.Options) (*pmusic.Spectrum, error) {
		<-release
		return nil, errors.New("stub")
	}
	p.Start()
	wait := drainFixes(p)

	reader := sc.Readers[0].ID
	const reports = 10
	ingested := make(chan error, 1)
	go func() {
		for i := 0; i < reports; i++ {
			if err := p.Ingest(fakeReport(reader, uint32(i+1), 1)); err != nil {
				ingested <- err
				return
			}
		}
		ingested <- nil
	}()
	select {
	case err := <-ingested:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ingest blocked under DropOldest")
	}
	close(release)
	p.Drain()
	wait()

	st := p.Stats()
	if st.SnapshotsIn != reports {
		t.Fatalf("snapshots in = %d, want %d", st.SnapshotsIn, reports)
	}
	if st.SnapshotsDropped == 0 {
		t.Fatal("no snapshots dropped despite full queue")
	}
	// 2 baseline rounds, the rest online; every report (dropped or
	// not) must have completed sequence assembly.
	if got := st.Fixes + st.Misses; got != reports-2 {
		t.Fatalf("fused outcomes = %d, want %d", got, reports-2)
	}
	if st.PendingSequences != 0 {
		t.Fatalf("pending sequences = %d after drain, want 0", st.PendingSequences)
	}
}

// TestOverloadBlock checks the Block policy applies backpressure: with
// the queue and the single worker saturated, Ingest stalls until the
// worker frees space, and nothing is dropped.
func TestOverloadBlock(t *testing.T) {
	cfg, sc := testConfig(t)
	cfg.Workers = 1
	cfg.QueueSize = 1
	cfg.Overload = Block
	cfg.ExpectReaders = 1
	p, err := newFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	p.compute = func([][]complex128, *rf.Array, pmusic.Options) (*pmusic.Spectrum, error) {
		<-release
		return nil, errors.New("stub")
	}
	p.Start()
	wait := drainFixes(p)

	reader := sc.Readers[0].ID
	done := make(chan struct{})
	go func() {
		// 4 single-tag reports: worker holds 1, queue holds 1, the
		// rest must block.
		for i := 0; i < 4; i++ {
			if err := p.Ingest(fakeReport(reader, uint32(i+1), 1)); err != nil {
				t.Errorf("ingest: %v", err)
			}
		}
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("ingest did not block with a full queue under Block policy")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ingest still blocked after workers released")
	}
	p.Drain()
	wait()
	if st := p.Stats(); st.SnapshotsDropped != 0 {
		t.Fatalf("Block policy dropped %d snapshots", st.SnapshotsDropped)
	}
}

// TestSequenceTTLEviction: sequences stuck waiting for a dead reader
// are evicted by the sweep and later reports for them are counted as
// late instead of resurrecting the group.
func TestSequenceTTLEviction(t *testing.T) {
	cfg, sc := testConfig(t)
	cfg.SeqTTL = time.Hour // sweep manually for determinism
	p, err := newFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	wait := drainFixes(p)
	alive, dead := sc.Readers[0].ID, sc.Readers[1].ID

	// Baseline both readers, then only `alive` keeps reporting.
	for round := 0; round < 2; round++ {
		seq := uint32(round + 1)
		if err := p.Ingest(taglessReport(alive, seq)); err != nil {
			t.Fatal(err)
		}
		if err := p.Ingest(taglessReport(dead, seq)); err != nil {
			t.Fatal(err)
		}
	}
	const stuck = 5
	for i := 0; i < stuck; i++ {
		if err := p.Ingest(taglessReport(alive, uint32(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	p.Drain()
	wait()

	if got := p.Stats().PendingSequences; got != stuck {
		t.Fatalf("pending before sweep = %d, want %d", got, stuck)
	}
	// The assembler has exited (Drain), so driving it directly is
	// race-free: a sweep past the TTL evicts everything.
	if n := p.asm.sweep(p.now().Add(2 * time.Hour)); n != stuck {
		t.Fatalf("sweep evicted %d, want %d", n, stuck)
	}
	st := p.Stats()
	if st.SequencesEvicted != stuck || st.PendingSequences != 0 {
		t.Fatalf("evicted/pending = %d/%d, want %d/0", st.SequencesEvicted, st.PendingSequences, stuck)
	}

	// A straggler report for an evicted sequence is counted as late.
	// The shards have exited, so submit applies it inline.
	p.asm.submit(&report{reader: dead, round: p.asm.seqs[dead].next, seq: 100})
	if got := p.Stats().LateReports; got != 1 {
		t.Fatalf("late reports = %d, want 1", got)
	}
}

// TestDeadReaderBoundedMemory is the regression test for the dwatchd
// s.online leak: with one reader dead, pending sequences are capped at
// MaxPendingSeqs no matter how many rounds the live reader streams.
func TestDeadReaderBoundedMemory(t *testing.T) {
	cfg, sc := testConfig(t)
	cfg.SeqTTL = time.Hour // the cap, not the TTL, must bound memory
	cfg.MaxPendingSeqs = 10
	p, err := newFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	wait := drainFixes(p)
	alive, dead := sc.Readers[0].ID, sc.Readers[1].ID
	for round := 0; round < 2; round++ {
		seq := uint32(round + 1)
		if err := p.Ingest(taglessReport(alive, seq)); err != nil {
			t.Fatal(err)
		}
		if err := p.Ingest(taglessReport(dead, seq)); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 500
	for i := 0; i < rounds; i++ {
		if err := p.Ingest(taglessReport(alive, uint32(10+i))); err != nil {
			t.Fatal(err)
		}
		if got := p.Stats().PendingSequences; got > cfg.MaxPendingSeqs {
			t.Fatalf("round %d: pending sequences %d exceeds cap %d", i, got, cfg.MaxPendingSeqs)
		}
	}
	p.Drain()
	wait()
	st := p.Stats()
	if st.PendingSequences > cfg.MaxPendingSeqs {
		t.Fatalf("pending = %d, want ≤ %d", st.PendingSequences, cfg.MaxPendingSeqs)
	}
	if want := uint64(rounds - cfg.MaxPendingSeqs); st.SequencesEvicted != want {
		t.Fatalf("evicted = %d, want %d", st.SequencesEvicted, want)
	}
	if got := p.asm.onlineLen(); got != cfg.MaxPendingSeqs {
		t.Fatalf("assembler holds %d groups, want %d", got, cfg.MaxPendingSeqs)
	}
}

// TestBadSnapshotsCountAsFailedSpectra: snapshots the spectrum stage
// cannot use — a 0×0 one, one narrower than the reader's array, and a
// ragged one — fail on the production compute path (no test seam),
// each counted in SpectraFailed, and the pipeline keeps running.
func TestBadSnapshotsCountAsFailedSpectra(t *testing.T) {
	cfg, sc := testConfig(t)
	p, err := newFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	wait := drainFixes(p)
	rd := sc.Readers[0]
	m := rd.Array.Elements
	rep := &llrp.ROAccessReport{ReaderID: rd.ID, Seq: 1, Reports: []llrp.TagReport{
		{EPC: []byte("empty"), Snapshot: [][]complex128{}},
		{EPC: []byte("narrow"), Snapshot: [][]complex128{make([]complex128, m-1), make([]complex128, m-1)}},
		{EPC: []byte("ragged"), Snapshot: [][]complex128{make([]complex128, m), make([]complex128, m+1)}},
	}}
	if err := p.Ingest(rep); err != nil {
		t.Fatal(err)
	}
	p.Drain()
	wait()
	if st := p.Stats(); st.SpectraFailed != 3 || st.SpectraComputed != 0 {
		t.Fatalf("spectra failed/computed = %d/%d, want 3/0", st.SpectraFailed, st.SpectraComputed)
	}
}

// TestCloseAborts: Close unblocks a parked pipeline without waiting
// for in-flight work.
func TestCloseAborts(t *testing.T) {
	cfg, sc := testConfig(t)
	cfg.Workers = 1
	cfg.QueueSize = 1
	p, err := newFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.compute = func([][]complex128, *rf.Array, pmusic.Options) (*pmusic.Spectrum, error) {
		<-p.stop
		return nil, errors.New("aborted")
	}
	p.Start()
	wait := drainFixes(p)
	go p.Ingest(fakeReport(sc.Readers[0].ID, 1, 5))
	time.Sleep(20 * time.Millisecond)
	finished := make(chan struct{})
	go func() { p.Close(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
	wait()
}

func TestOverloadPolicyString(t *testing.T) {
	if Block.String() != "block" || DropOldest.String() != "drop-oldest" {
		t.Fatalf("policy strings: %q %q", Block, DropOldest)
	}
	if s := OverloadPolicy(9).String(); s != "OverloadPolicy(9)" {
		t.Fatalf("unknown policy string %q", s)
	}
}
