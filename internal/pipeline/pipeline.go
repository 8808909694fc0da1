// Package pipeline is the concurrent streaming localization pipeline:
// the staged architecture that lets the D-Watch server keep up with
// many readers forwarding every backscatter packet (Section 5's
// deployment) instead of processing each RO_ACCESS_REPORT inline under
// one lock.
//
// Stages:
//
//  1. Ingest — Ingest validates a report against the deployment,
//     stamps it with the reader's round number, and enqueues the whole
//     report as one job on a bounded queue (one channel operation per
//     report, however many tags it carries). It decodes no samples: a
//     decoded report carries each tag's validated wire bytes. When the
//     queue is full the configured OverloadPolicy decides: Block
//     applies backpressure to the reader connection, DropOldest sheds
//     the stalest queued report so fresh evidence wins.
//  2. Spectrum workers — a pool of Workers goroutines evaluates each
//     job's snapshots per tag, decoding each tag's samples once into
//     scratch the worker owns. Baseline rounds run the full P-MUSIC
//     spectrum. Once a reader's baseline is confirmed its plan is out,
//     and an online tag costs only its correlation and the Eq. 13 beam
//     power at its monitored peaks (none: row validation only); one
//     tag per report, round-robin, still gets a full spectrum for the
//     RF-health monitor. This stage scales with cores.
//  3. Sequencing — each worker hands its completed report to the
//     owning reader's round sequencer (a per-reader lock, no shared
//     funnel), which applies reports in round order so baselines are
//     built exactly as in the synchronous path even when spectra
//     finish out of order across the pool. An online report computed
//     before its reader's plan was out carries full spectra; the
//     sequencer samples the same evidence bits from them.
//  4. Sharded fusion — online reports route to seq%N shard goroutines
//     that own the per-sequence grouping state. When a sequence has
//     evidence from every reader, its shard builds drop views and
//     runs the grid search, emitting a Fix — independent sequences
//     fuse in parallel instead of serializing behind one assembler.
//     A pending sequence holds evidence, a few floats per monitored
//     tag, not spectra.
//     Incomplete sequences are evicted after SeqTTL (and capped
//     globally at MaxPendingSeqs) so a dead reader cannot leak
//     memory; reports for evicted sequences are counted as late, not
//     crashed on.
//
// The pipeline exposes a Stats snapshot (counters, queue depth, and
// per-stage latency histograms) and a Start/Drain/Close lifecycle.
// The shared dwatch.Fuser is guarded by a read-write lock: baseline
// construction (startup-only) takes the write side, the sequencers'
// Evidence and the shards' BuildView calls the read side.
package pipeline

import (
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dwatch/internal/dwatch"
	"dwatch/internal/geom"
	"dwatch/internal/health"
	"dwatch/internal/llrp"
	"dwatch/internal/loc"
	"dwatch/internal/obs"
	"dwatch/internal/pmusic"
	"dwatch/internal/rf"
	"dwatch/internal/stats"
	"dwatch/internal/tracing"
)

// OverloadPolicy selects what Ingest does when the report queue is
// full.
type OverloadPolicy int

const (
	// Block makes Ingest wait for queue space: backpressure propagates
	// to the reader's TCP connection. The default.
	Block OverloadPolicy = iota
	// DropOldest sheds the oldest queued report to make room, so a
	// burst degrades evidence quality instead of latency. Shed reports
	// still complete (with no spectra) so sequence assembly never
	// stalls on a dropped one.
	DropOldest
)

func (p OverloadPolicy) String() string {
	switch p {
	case Block:
		return "block"
	case DropOldest:
		return "drop-oldest"
	default:
		return fmt.Sprintf("OverloadPolicy(%d)", int(p))
	}
}

// Config parameterizes a Pipeline.
type Config struct {
	// Arrays maps reader IDs to their array geometries — the
	// deployment knowledge. Reports from readers not listed here are
	// rejected. Required.
	Arrays map[string]*rf.Array
	// ExpectReaders is how many distinct readers must report a
	// sequence before it is fused. 0 = len(Arrays).
	ExpectReaders int
	// Grid is the localization search area. Required.
	Grid loc.Grid

	// Workers sizes the spectrum worker pool. 0 = GOMAXPROCS.
	Workers int
	// QueueSize bounds the report job queue. 0 = 256.
	QueueSize int
	// Overload selects the full-queue policy.
	Overload OverloadPolicy
	// AssemblerShards sizes the sharded fusion stage: sequences are
	// distributed seq%N across N shard goroutines, each owning its
	// groups' state, so independent sequences fuse in parallel.
	// 0 = GOMAXPROCS. 1 restores a single serialized fusion stage.
	AssemblerShards int

	// BaselineRounds is how many initial reports per reader feed the
	// baseline instead of online localization. 0 = 2 (the paper's
	// reference + confirmation rounds). Ignored when Restored is set.
	BaselineRounds int
	// Restored supplies a fuser with a previously saved baseline; all
	// readers then start directly in the online phase. Its baseline
	// spectra must be on the pipeline's scan grid (PMusic.Music).
	Restored *dwatch.Fuser

	// SeqTTL evicts incomplete sequences older than this. 0 = 30 s.
	SeqTTL time.Duration
	// MaxPendingSeqs caps concurrently-assembling sequences across all
	// shards; at the cap the globally-oldest group is evicted before a
	// new one is admitted. 0 = 1024.
	MaxPendingSeqs int

	// Fuser tunes the evidence fuser (thresholds, drop floor).
	Fuser dwatch.Config
	// PMusic tunes the spectrum computation.
	PMusic pmusic.Options
	// Loc tunes the localizer.
	Loc loc.Options

	// OnBaseline, when set, is called after a reader's baseline is
	// confirmed, with the number of tags whose spectra fed the
	// confirmation round. It runs with the fuser held exclusively —
	// the fuser is safe to snapshot (state persistence) for the
	// duration of the callback.
	OnBaseline func(readerID string, tags int)

	// LiveReaders, when set, supplies the live-reader set (reader IDs,
	// any order) and enables quorum-degraded fusion: a sequence no
	// longer waits for ExpectReaders when a reader is down — it fuses
	// as soon as every *live* expected reader has reported, provided
	// at least two reporting readers have non-collinear arrays (a
	// collinear pair constrains only one axis and cannot localize).
	// Such fixes are marked Degraded. Call NotifyLiveChange after the
	// set changes. Nil preserves the strict ExpectReaders gate.
	LiveReaders func() []string

	// Obs, when set, attaches the pipeline to a metrics registry: the
	// flow counters feed labeled counter families incrementally, queue
	// depth and pending sequences become live gauges, and each stage
	// (ingest, spectrum, assemble, fuse) records an obs span — the
	// seam the internal/serve observability plane scrapes while the
	// pipeline runs. Nil disables instrumentation at zero cost beyond
	// one nil check per counter site.
	Obs *obs.Registry

	// Tracer, when set, records a per-sequence trace: a trace ID is
	// minted at first ingest of each acquisition sequence, every stage
	// records a span (with the queue-wait vs compute split for spectrum
	// work), and lifecycle events (drops, evictions, degraded fusion)
	// attach to the owning trace. The ID is stamped onto the emitted
	// Fix so a served position resolves back to its trace. Nil disables
	// tracing — every call site no-ops on the nil receiver.
	Tracer *tracing.Tracer

	// Health, when set, receives every applied tag read: per-(reader,
	// tag) read rates, and per-path power baselines with drift
	// detection and calibration residuals from the full spectra —
	// every baseline-round tag's, then one tag per online report,
	// round-robin over the reader's baseline tags. Nil disables
	// RF-health monitoring.
	Health *health.Monitor

	// Logger, when set, receives structured logs for operationally
	// interesting pipeline transitions (sequence evictions, degraded
	// fusion, baseline confirmation) with seq / reader / trace fields.
	// Nil silences them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.ExpectReaders == 0 {
		c.ExpectReaders = len(c.Arrays)
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 256
	}
	if c.AssemblerShards <= 0 {
		c.AssemblerShards = runtime.GOMAXPROCS(0)
	}
	if c.BaselineRounds == 0 {
		c.BaselineRounds = 2
	}
	if c.SeqTTL <= 0 {
		c.SeqTTL = 30 * time.Second
	}
	if c.MaxPendingSeqs <= 0 {
		c.MaxPendingSeqs = 1024
	}
	return c
}

// Fix is one fusion outcome: a localization fix when Err is nil,
// otherwise a miss (not enough evidence or no covered grid point).
type Fix struct {
	Seq        uint32
	Pos        geom.Point
	Confidence float64
	Views      int // readers that contributed usable evidence
	// Readers lists the readers whose reports joined this fusion,
	// sorted — under degraded operation a subset of the deployment.
	Readers []string
	// Degraded marks a fix fused from the live quorum while at least
	// one expected reader was down.
	Degraded bool
	// TraceID identifies this sequence's trace when a Tracer is
	// attached ("" otherwise); resolvable via Tracer.Get and the
	// /api/v1/traces/{id} endpoint.
	TraceID string
	Err     error
}

// Errors returned by Ingest.
var (
	ErrClosed        = errors.New("pipeline: closed")
	ErrUnknownReader = errors.New("pipeline: report from unknown reader")
)

// job is one whole report heading to the worker pool: batched
// dispatch, one queue operation per report regardless of tag count.
// The owning worker evaluates every tag before handing the completed
// report to the sequencer.
type job struct {
	reader string
	arr    *rf.Array
	round  int
	seq    uint32
	tags   []llrp.TagReport
	enq    time.Time
}

// Pipeline is the streaming localization pipeline. Create with New,
// launch with Start, feed with Ingest, consume Fixes, and finish with
// Drain (graceful) or Close (abort).
type Pipeline struct {
	cfg Config

	jobs  chan job
	fixes chan Fix
	stop  chan struct{}

	workerWG sync.WaitGroup

	started atomic.Bool
	// ingestMu arbitrates shutdown against in-flight Ingest calls:
	// producers hold it shared while sending, Drain/Close hold it
	// exclusively to flip closed, so the jobs channel is never closed
	// under a concurrent send.
	ingestMu     sync.RWMutex
	closed       bool
	closeOnce    sync.Once
	teardownOnce sync.Once

	// ingest-side sequencing: per-reader round numbers.
	mu     sync.Mutex
	rounds map[string]int

	c counters
	// ins mirrors the counters onto the attached obs.Registry (nil
	// when Config.Obs is unset — every method is then a no-op).
	ins *instruments
	// fixSubs are invoked for every fix before the channel send;
	// registration is only allowed before Start. With more than one
	// assembler shard, callbacks for different sequences may run
	// concurrently and must be safe for that.
	fixSubs []func(Fix)

	decodeHist *stats.Histogram
	fuseHist   *stats.Histogram

	// compute and now are test seams. compute replaces the full
	// spectrum path only; it is nil in production, and each worker
	// then runs P-MUSIC straight from the tag's snapshot rows
	// through its own reusable per-array pmusic.Workspace
	// (bit-identical to pmusic.Compute, allocating only the result).
	compute func(snap [][]complex128, arr *rf.Array, opts pmusic.Options) (*pmusic.Spectrum, error)
	now     func() time.Time

	asm *assembler
}

// newFromConfig validates a full Config and builds a pipeline. Start
// must be called before Ingest. New is the public construction path;
// this is the shared validation core.
func newFromConfig(cfg Config) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Arrays) == 0 {
		return nil, errors.New("pipeline: no reader arrays configured")
	}
	if err := cfg.Grid.Validate(); err != nil {
		return nil, err
	}
	p := &Pipeline{
		cfg:        cfg,
		jobs:       make(chan job, cfg.QueueSize),
		fixes:      make(chan Fix, 64),
		stop:       make(chan struct{}),
		rounds:     map[string]int{},
		decodeHist: stats.NewHistogram(stats.LatencyBounds()),
		fuseHist:   stats.NewHistogram(stats.LatencyBounds()),
		now:        time.Now,
	}
	fuser := cfg.Restored
	if fuser == nil {
		fuser = dwatch.NewFuser(cfg.Arrays, cfg.Fuser)
	} else {
		if err := checkRestoredGrid(fuser, cfg); err != nil {
			return nil, err
		}
		// A restored baseline puts every reader straight into the
		// online phase.
		for id := range cfg.Arrays {
			p.rounds[id] = cfg.BaselineRounds
		}
	}
	indexes, err := gridIndexes(cfg)
	if err != nil {
		return nil, err
	}
	p.asm = newAssembler(p, fuser, indexes)
	p.ins = newInstruments(cfg.Obs, p)
	return p, nil
}

// gridIndexes builds each reader's cell→angle-bin table for the search
// grid at the scan-grid size every view of the pipeline has: baseline
// spectra come from the workers' P-MUSIC runs, and a restored
// baseline must match them (checkRestoredGrid). Built here, once, so
// no fix pays for it.
func gridIndexes(cfg Config) (map[string]*loc.GridIndex, error) {
	bins := cfg.PMusic.Music.GridLen()
	out := make(map[string]*loc.GridIndex, len(cfg.Arrays))
	for id, arr := range cfg.Arrays {
		g, err := loc.NewGridIndex(arr, cfg.Grid, bins)
		if err != nil {
			return nil, fmt.Errorf("pipeline: grid index for %s: %w", id, err)
		}
		out[id] = g
	}
	return out, nil
}

// checkRestoredGrid rejects a restored baseline whose spectra are not
// on the pipeline's scan grid: its monitored peak indices would then
// read the wrong steering-table angles.
func checkRestoredGrid(f *dwatch.Fuser, cfg Config) error {
	n := cfg.PMusic.Music.GridLen()
	for id := range cfg.Arrays {
		for _, epc := range f.Tags(id) {
			if got := len(f.BaselineSpectrum(id, []byte(epc)).Angles); got != n {
				return fmt.Errorf("pipeline: restored baseline %s/%x has %d angles, scan grid has %d", id, epc, got, n)
			}
		}
	}
	return nil
}

// SubscribeFixes registers fn to be invoked for every fusion outcome
// (fix or miss) before it is placed on the Fixes channel — the seam
// the observability plane uses for live position streaming without
// competing with the Fixes consumer. Callbacks run on the fusing
// shard's goroutine and must not block; with more than one shard they
// may run concurrently for different sequences. They may not be added
// after Start.
func (p *Pipeline) SubscribeFixes(fn func(Fix)) {
	if p.started.Load() {
		panic("pipeline: SubscribeFixes after Start")
	}
	p.fixSubs = append(p.fixSubs, fn)
}

// Start launches the worker pool and the fusion shards. It may be
// called once.
func (p *Pipeline) Start() {
	if !p.started.CompareAndSwap(false, true) {
		return
	}
	for i := 0; i < p.cfg.Workers; i++ {
		p.workerWG.Add(1)
		go p.worker()
	}
	for _, s := range p.asm.shards {
		p.asm.shardWG.Add(1)
		go s.run()
	}
}

// NotifyLiveChange pokes every fusion shard to re-evaluate its pending
// sequences against the current LiveReaders set. Cheap, non-blocking,
// safe from any goroutine (typically a session.Supervisor state
// callback); a no-op when no LiveReaders oracle is configured.
func (p *Pipeline) NotifyLiveChange() {
	for _, s := range p.asm.shards {
		select {
		case s.live <- struct{}{}:
		default:
		}
	}
}

// Fixes returns the output channel. It is closed after Drain once all
// in-flight work has flushed. Consumers should drain it promptly; the
// channel is buffered but shards block when it fills.
func (p *Pipeline) Fixes() <-chan Fix { return p.fixes }

// Ingest feeds one validated report into the pipeline. Safe for
// concurrent use by per-connection handler goroutines. Under the Block
// policy it waits for queue space; under DropOldest it never blocks on
// a full queue.
func (p *Pipeline) Ingest(rep *llrp.ROAccessReport) error {
	p.ingestMu.RLock()
	defer p.ingestMu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	arr := p.cfg.Arrays[rep.ReaderID]
	if arr == nil {
		p.c.reportsRejected.Add(1)
		p.ins.reportRejected()
		return fmt.Errorf("%w %q", ErrUnknownReader, rep.ReaderID)
	}
	p.c.reportsIn.Add(1)
	p.ins.reportAccepted(rep.ReaderID)

	p.mu.Lock()
	round := p.rounds[rep.ReaderID]
	p.rounds[rep.ReaderID] = round + 1
	p.mu.Unlock()

	now := p.now()
	// The trace for this acquisition sequence starts (or continues —
	// Begin is idempotent per live sequence) at ingest; each reader's
	// report contributes its own ingest span.
	trc := p.cfg.Tracer.Begin(rep.Seq, now)
	if len(rep.Reports) == 0 {
		// Tagless report: skip the workers but keep round accounting
		// and sequence membership alive.
		err := p.asm.submit(&report{reader: rep.ReaderID, round: round, seq: rep.Seq})
		trc.Span(tracing.StageIngest, rep.ReaderID, "", now, p.now(), 0)
		return err
	}
	// The ingest span covers validation-to-enqueued, including any
	// backpressure wait under the Block policy — that wait is the
	// signal the span exists to surface.
	sp := p.ins.span(stageIngest, now)
	err := p.enqueue(job{
		reader: rep.ReaderID,
		arr:    arr,
		round:  round,
		seq:    rep.Seq,
		tags:   rep.Reports,
		enq:    now,
	})
	if err != nil {
		return err
	}
	p.c.snapshotsIn.Add(uint64(len(rep.Reports)))
	p.ins.snapshotsEnqueued(len(rep.Reports))
	if p.ins != nil || trc != nil {
		end := p.now()
		if p.ins != nil {
			sp.EndAt(end)
		}
		trc.Span(tracing.StageIngest, rep.ReaderID, "", now, end, 0)
	}
	return nil
}

// enqueue places a report job on the queue honouring the overload
// policy.
func (p *Pipeline) enqueue(j job) error {
	if p.cfg.Overload == Block {
		select {
		case p.jobs <- j:
			return nil
		case <-p.stop:
			return ErrClosed
		}
	}
	for {
		select {
		case p.jobs <- j:
			return nil
		case <-p.stop:
			return ErrClosed
		default:
		}
		// Queue full: shed the oldest queued report and retry. The
		// shed report is forwarded with no evidence so it still
		// completes round accounting and sequence membership. Losing
		// the race to a worker just means space freed up — the retry
		// will succeed.
		select {
		case old := <-p.jobs:
			p.c.snapshotsDropped.Add(uint64(len(old.tags)))
			p.ins.snapshotsDropped(len(old.tags))
			if trc := p.cfg.Tracer.Active(old.seq); trc != nil {
				for _, tr := range old.tags {
					trc.Event(tracing.EventSnapshotDropped,
						old.reader+"/"+hex.EncodeToString(tr.EPC), p.now())
				}
			}
			if err := p.asm.submit(&report{reader: old.reader, round: old.round, seq: old.seq}); err != nil {
				return err
			}
		default:
		}
	}
}

// worker is one spectrum-pool goroutine: it evaluates every tag of a
// report job, then hands the completed report to the reader's round
// sequencer.
func (p *Pipeline) worker() {
	defer p.workerWG.Done()
	sc := &workerScratch{ws: map[*rf.Array]*pmusic.Workspace{}}
	for j := range p.jobs {
		if p.asm.submit(p.runJob(sc, j)) != nil {
			return
		}
	}
}

// workerScratch is one spectrum worker's reusable state. It owns one
// pmusic.Workspace per array geometry, so every scratch stage is
// reused across the snapshots it processes while the steering tables
// stay shared and read-only, and the buffer a decoded tag's samples
// are decoded into: once per tag, consumed by that tag's spectrum or
// beam powers before the next tag's decode.
type workerScratch struct {
	ws    map[*rf.Array]*pmusic.Workspace
	snaps llrp.SnapshotBuf
}

// runJob evaluates every tag snapshot of one report job, recording a
// per-tag spectrum span with the queue-wait vs compute split. A job
// that finds its reader's plan out (an online round after the
// confirmation) computes a full spectrum only for the round's health
// sample and the monitored beam powers for every other tag; any other
// job computes every tag's full spectrum. Either way each tag counts
// once in the spectrum stage's span, histogram and result counter.
func (p *Pipeline) runJob(sc *workerScratch, j job) *report {
	g := &report{reader: j.reader, round: j.round, seq: j.seq, read: make([]string, 0, len(j.tags))}
	var pl *plan
	if j.round >= p.cfg.BaselineRounds {
		pl = p.asm.seqs[j.reader].plan.Load()
	}
	if pl != nil {
		g.evidence = make(map[string][]float64, len(pl.idx))
	}
	trc := p.cfg.Tracer.Active(j.seq)
	for i := range j.tags {
		tr := &j.tags[i]
		epc := string(tr.EPC)
		start := p.now()
		span := p.ins.span(stageSpectrum, start)
		rows := tr.Rows(&sc.snaps)
		var err error
		if pl.full(j.round, epc) {
			var sp *pmusic.Spectrum
			if sp, err = p.computeSnapshot(sc.ws, j.arr, rows); err == nil {
				if g.spectra == nil {
					g.spectra = make(map[string]*pmusic.Spectrum, len(j.tags))
				}
				g.spectra[epc] = sp
			}
		} else {
			var ev []float64
			if ev, err = p.monitoredBeams(sc.ws, j.arr, pl.idx[epc], rows); err == nil && len(ev) > 0 {
				g.evidence[epc] = ev
			}
		}
		end := p.now()
		p.decodeHist.ObserveDuration(span.EndAt(end))
		if trc != nil {
			// The trace span runs from enqueue to completion with the
			// wait before compute recorded separately, so Compute()
			// isolates the spectrum-stage cost from backlog-induced
			// latency.
			trc.Span(tracing.StageSpectrum, j.reader, pl.label(epc),
				j.enq, end, start.Sub(j.enq))
		}
		if err != nil {
			p.c.spectraFailed.Add(1)
			p.ins.spectrum(false)
			trc.Event(tracing.EventSpectrumFailed, j.reader+": "+err.Error(), end)
			continue
		}
		p.c.spectraComputed.Add(1)
		p.ins.spectrum(true)
		g.read = append(g.read, epc)
	}
	return g
}

// computeSnapshot turns one raw snapshot into a full P-MUSIC spectrum,
// through the test seam when set, otherwise through the worker's
// reusable workspace for the job's array.
func (p *Pipeline) computeSnapshot(ws map[*rf.Array]*pmusic.Workspace, arr *rf.Array, snap [][]complex128) (*pmusic.Spectrum, error) {
	if p.compute != nil {
		return p.compute(snap, arr, p.cfg.PMusic)
	}
	w, err := p.workspace(ws, arr)
	if err != nil {
		return nil, err
	}
	return w.Compute(snap)
}

// monitoredBeams evaluates one snapshot only at a tag's monitored grid
// indices, through the worker's workspace for the job's array; a tag
// with no monitored peak only has its rows validated.
func (p *Pipeline) monitoredBeams(ws map[*rf.Array]*pmusic.Workspace, arr *rf.Array, idx []int, snap [][]complex128) ([]float64, error) {
	w, err := p.workspace(ws, arr)
	if err != nil {
		return nil, err
	}
	ev := make([]float64, len(idx))
	return ev, w.BeamAt(snap, idx, ev)
}

// workspace returns the worker's reusable workspace for an array,
// creating it on first use.
func (p *Pipeline) workspace(ws map[*rf.Array]*pmusic.Workspace, arr *rf.Array) (*pmusic.Workspace, error) {
	if w := ws[arr]; w != nil {
		return w, nil
	}
	w, err := pmusic.NewWorkspace(arr, p.cfg.PMusic)
	if err != nil {
		return nil, err
	}
	ws[arr] = w
	return w, nil
}

// teardown runs the ordered shutdown exactly once: stop the intake,
// flush the workers, flush the shards, close the output. Safe to call
// from both Drain and Close; the second caller blocks until the first
// finishes.
func (p *Pipeline) teardown() {
	p.teardownOnce.Do(func() {
		close(p.jobs)
		p.workerWG.Wait()
		for _, s := range p.asm.shards {
			close(s.ch)
		}
		p.asm.shardWG.Wait()
		close(p.asm.shardsStopped)
		close(p.fixes)
		p.ins.close()
	})
}

// Drain stops accepting new reports, waits for queued work to compute
// and fuse, and closes the Fixes channel. Callers must keep consuming
// Fixes while draining (or buffer permitting, after).
func (p *Pipeline) Drain() {
	if !p.started.Load() {
		return
	}
	p.markClosed()
	p.teardown()
}

// Close aborts the pipeline immediately: in-flight work is abandoned.
// Safe to call after Drain (it is then a no-op beyond bookkeeping).
func (p *Pipeline) Close() {
	p.closeOnce.Do(func() {
		// Unblock parked producers and stages first, then wait for
		// ingest rights before closing the channels.
		close(p.stop)
		p.markClosed()
		if p.started.Load() {
			p.teardown()
		} else {
			p.ins.close()
		}
	})
}

// markClosed flips the closed flag once no Ingest is mid-send and
// reports whether it was already set.
func (p *Pipeline) markClosed() bool {
	p.ingestMu.Lock()
	defer p.ingestMu.Unlock()
	already := p.closed
	p.closed = true
	return already
}

// Restored reports whether the pipeline started from a saved baseline
// (WithRestored): its readers are online at once and confirm none.
func (p *Pipeline) Restored() bool { return p.cfg.Restored != nil }

// Fuser exposes the pipeline's evidence fuser. Only safe to inspect
// after Drain (the assembler owns it while running).
func (p *Pipeline) Fuser() *dwatch.Fuser { return p.asm.fuser }
