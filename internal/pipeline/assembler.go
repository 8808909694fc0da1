package pipeline

import (
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dwatch/internal/dwatch"
	"dwatch/internal/loc"
	"dwatch/internal/pmusic"
	"dwatch/internal/rf"
	"dwatch/internal/tracing"
)

// report is one reader's completed acquisition report, ready for
// round-ordered application. Workers produce one per job; the ingest
// path produces them directly for tagless and shed reports.
type report struct {
	reader string
	round  int
	seq    uint32
	// read lists, in report order, every tag whose snapshot passed the
	// spectrum stage; failed and shed ones are omitted. The RF-health
	// monitor counts each as a read.
	read []string
	// spectra holds the full P-MUSIC spectra the stage computed: every
	// read tag's in a baseline round and in an online round worked
	// before the reader's plan was out, otherwise only the health
	// sample's (plan.full).
	spectra map[string]*pmusic.Spectrum
	// evidence holds the fuser's online input per monitored tag: the
	// beam powers at its monitored peaks (dwatch.Fuser.BuildView).
	// Workers fill it on the monitored path; apply adds the evidence it
	// samples from spectra, then drops the spectra.
	evidence map[string][]float64
}

// plan is a confirmed reader's online evaluation plan: which grid
// indices each tag's fix evidence reads. The baseline confirmation (or
// New, for a restored fuser) publishes it once on the reader's
// sequencer under fuserMu; it is immutable after, so workers load it
// without a lock. The reader's monitored set never changes after its
// confirmation, so the plan stays equal to the fuser's MonitoredPeaks.
type plan struct {
	keys   []string          // the reader's baseline tags, sorted
	idx    map[string][]int  // per tag, its monitored peaks' grid indices in MonitoredPeaks order
	labels map[string]string // per tag, its hex EPC: the trace spans' tag label
}

// newPlan snapshots a reader's monitored peaks from the fuser; the
// caller holds fuserMu.
func newPlan(f *dwatch.Fuser, readerID string) *plan {
	pl := &plan{keys: f.Tags(readerID), idx: map[string][]int{}, labels: map[string]string{}}
	for _, k := range pl.keys {
		pl.labels[k] = hex.EncodeToString([]byte(k))
		peaks := f.MonitoredPeaks(readerID, []byte(k))
		if len(peaks) == 0 {
			continue
		}
		idx := make([]int, len(peaks))
		for i, pk := range peaks {
			idx[i] = pk.Index
		}
		pl.idx[k] = idx
	}
	return pl
}

// full reports whether a tag's read in a round keeps its full
// spectrum. Without a plan (nil: a baseline round, or an online one
// evaluated before the confirmation) every tag does. With one, only
// the round's health sample does: the plan's keys round-robin, so each
// of K baseline tags is sampled once every K rounds.
func (pl *plan) full(round int, epc string) bool {
	if pl == nil {
		return true
	}
	return len(pl.keys) > 0 && pl.keys[round%len(pl.keys)] == epc
}

// label returns a tag's hex EPC for trace spans: the plan's, rendered
// once per baseline tag, or a fresh encoding without a plan (baseline
// rounds) or for a tag outside it.
func (pl *plan) label(epc string) string {
	if pl != nil {
		if l, ok := pl.labels[epc]; ok {
			return l
		}
	}
	return hex.EncodeToString([]byte(epc))
}

// seqGroup accumulates one acquisition sequence across readers: each
// reader's online evidence, a few floats per monitored tag.
type seqGroup struct {
	byReader map[string]map[string][]float64
	created  time.Time
}

// readerSeq is one reader's round sequencer: workers finish that
// reader's reports in arbitrary order, and submit applies them in
// round order under the per-reader lock — so baselines are built
// exactly as in the synchronous path, without funneling every reader
// through one goroutine. It also carries the reader's plan once its
// baseline is confirmed.
type readerSeq struct {
	mu    sync.Mutex
	next  int
	ready map[int]*report
	plan  atomic.Pointer[plan]
}

// assembler is stages 3+4, sharded: per-reader sequencers feed
// complete reports to seq%N shard goroutines that own the grouping
// state, so fusion for independent sequences runs in parallel. The
// fuser is shared under a read-write lock (baseline writes are rare
// and confined to startup; Evidence and BuildView are read-only), and
// the per-reader grid indexes, built in New, are immutable and shared
// without one.
type assembler struct {
	p     *Pipeline
	fuser *dwatch.Fuser
	// fuserMu orders baseline mutation against concurrent reads from
	// the sequencers and fusion shards. dwatch.Fuser itself is not
	// synchronized: AddBaseline/FinishBaseline and plan publication
	// take the write side, Evidence and BuildView the read side.
	fuserMu sync.RWMutex

	// seqs holds one round sequencer per deployed reader; the reader
	// set is fixed at construction, so the map itself is read-only.
	seqs map[string]*readerSeq

	shards  []*shard
	shardWG sync.WaitGroup
	// shardsStopped is closed after every shard goroutine has exited
	// (teardown); submission then applies reports inline, which keeps
	// post-Drain test driving and late flushes single-threaded-safe.
	shardsStopped chan struct{}

	// pending counts sequences mid-assembly across all shards — the
	// only assembler state Stats reads, and the cap gate for
	// MaxPendingSeqs. A new group's slot is reserved by CAS before it
	// is inserted (see reserve), so the count never exceeds the cap.
	pending atomic.Int64

	// baselineApplied counts baseline-round reports applied per
	// sequence so the sequence's trace can be finished (outcome
	// "baseline") once every expected reader's report landed.
	baselineMu      sync.Mutex
	baselineApplied map[uint32]int

	// indexes holds each reader's cell→angle-bin table for the search
	// grid (gridIndexes); read-only after New.
	indexes map[string]*loc.GridIndex
}

// shard owns the online/done grouping state for the sequences with
// seq % shards == index. Its goroutine consumes the shard channel,
// sweeps its own groups on a timer, and fuses independently of the
// other shards. The mutex exists for the two cross-shard paths —
// global cap eviction and post-teardown inline application — plus the
// Stats-adjacent test accessors.
type shard struct {
	a    *assembler
	ch   chan *report
	live chan struct{}

	mu     sync.Mutex
	online map[uint32]*seqGroup
	// done records sequences already fused or evicted (with the time
	// they finished) so late reports are counted instead of
	// resurrecting a group; pruned by the sweeper.
	done map[uint32]time.Time

	// Fusion scratch, used only by whoever fuses this shard's
	// sequences: the shard goroutine, or after teardown the single
	// caller that applies reports inline. Never under mu.
	search  loc.Workspace
	views   []*loc.View
	viewIdx []*loc.GridIndex
}

func newAssembler(p *Pipeline, fuser *dwatch.Fuser, indexes map[string]*loc.GridIndex) *assembler {
	a := &assembler{
		p:               p,
		fuser:           fuser,
		seqs:            map[string]*readerSeq{},
		shardsStopped:   make(chan struct{}),
		baselineApplied: map[uint32]int{},
		indexes:         indexes,
	}
	for id := range p.cfg.Arrays {
		// Restored-baseline pipelines start every reader past the
		// baseline rounds (p.rounds is pre-seeded) with its plan out.
		rs := &readerSeq{next: p.rounds[id], ready: map[int]*report{}}
		if p.cfg.Restored != nil {
			rs.plan.Store(newPlan(fuser, id))
		}
		a.seqs[id] = rs
	}
	a.shards = make([]*shard, p.cfg.AssemblerShards)
	for i := range a.shards {
		a.shards[i] = &shard{
			a:      a,
			ch:     make(chan *report, 64),
			live:   make(chan struct{}, 1),
			online: map[uint32]*seqGroup{},
			done:   map[uint32]time.Time{},
		}
	}
	return a
}

// submit hands one completed report to the assembler. It buffers
// out-of-order rounds and applies in-order ones immediately, holding
// the reader's sequencer lock through application so no later round
// can overtake an earlier one mid-apply. Called from worker goroutines
// and (for tagless reports) from Ingest.
func (a *assembler) submit(g *report) error {
	rs := a.seqs[g.reader]
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.ready[g.round] = g
	for {
		next, ok := rs.ready[rs.next]
		if !ok {
			return nil
		}
		delete(rs.ready, rs.next)
		rs.next++
		if err := a.apply(next); err != nil {
			return err
		}
	}
}

// apply processes one in-order report: baseline rounds feed the fuser,
// online rounds route their evidence to their sequence's shard. Every
// report also feeds the RF-health monitor (observe) — baseline rounds
// included, since channel statistics accrue regardless of phase.
func (a *assembler) apply(g *report) error {
	if g.round < a.p.cfg.BaselineRounds {
		a.observe(g, nil)
		a.applyBaseline(g)
		return nil
	}
	// Online rounds apply only after the reader's confirmation (or a
	// restored pipeline's New) published its plan.
	pl := a.seqs[g.reader].plan.Load()
	a.observe(g, pl)
	if len(g.spectra) > 0 {
		// Full spectra — a job that raced the confirmation, or the
		// health sample — yield the same evidence bits the monitored
		// path computes.
		a.fuserMu.RLock()
		ev := a.fuser.Evidence(g.reader, g.spectra)
		a.fuserMu.RUnlock()
		if g.evidence == nil {
			g.evidence = ev
		} else {
			for epc, v := range ev {
				g.evidence[epc] = v
			}
		}
		g.spectra = nil
	}
	return a.route(g)
}

// observe feeds one report's reads to the RF-health monitor in report
// order. Without a plan (a baseline round) every read tag's spectrum
// is observed. With one, only the round's health sample passes its
// spectrum and every other tag counts as a bare read: read rates still
// count every round, and each pair's path statistics refresh once per
// len(plan.keys) online rounds, whichever path the worker took.
func (a *assembler) observe(g *report, pl *plan) {
	h := a.p.cfg.Health
	if h == nil || len(g.read) == 0 {
		return
	}
	now := a.p.now()
	for _, epc := range g.read {
		var sp *pmusic.Spectrum
		if pl.full(g.round, epc) {
			sp = g.spectra[epc]
		}
		h.Observe(g.reader, epc, sp, now)
	}
}

// applyBaseline folds one baseline-round report into the fuser under
// the write lock. On the confirmation round it applies the reader's
// peak floor and publishes the reader's plan, which switches the
// workers to the monitored path for its online reports. The
// OnBaseline callback runs inside the critical section: callers
// (dwatchd state persistence) rely on exclusive fuser access while the
// callback executes.
func (a *assembler) applyBaseline(g *report) {
	confirm := g.round == a.p.cfg.BaselineRounds-1
	a.fuserMu.Lock()
	for epc, sp := range g.spectra {
		a.fuser.AddBaseline(g.reader, []byte(epc), sp)
	}
	if confirm {
		a.fuser.FinishBaseline(g.reader)
		a.seqs[g.reader].plan.Store(newPlan(a.fuser, g.reader))
		if a.p.cfg.OnBaseline != nil {
			a.p.cfg.OnBaseline(g.reader, len(g.spectra))
		}
	}
	a.fuserMu.Unlock()
	if confirm {
		a.p.c.baselinesConfirmed.Add(1)
		a.p.ins.baselineConfirmed(g.reader)
		if l := a.p.cfg.Logger; l != nil {
			l.Info("baseline confirmed", "reader", g.reader, "tags", len(g.spectra))
		}
	}
	// Baseline sequences never fuse; finish their trace once every
	// expected reader's report for this sequence has been applied.
	if a.p.cfg.Tracer != nil {
		a.baselineMu.Lock()
		a.baselineApplied[g.seq]++
		finished := a.baselineApplied[g.seq] >= a.p.cfg.ExpectReaders
		if finished {
			delete(a.baselineApplied, g.seq)
		}
		a.baselineMu.Unlock()
		if finished {
			a.p.cfg.Tracer.Finish(g.seq, tracing.OutcomeBaseline, a.p.now())
		}
	}
}

// route delivers an online report to its sequence's shard. After the
// shards have exited (teardown), the report is applied inline instead —
// at that point submission is single-threaded (post-Drain tests).
func (a *assembler) route(g *report) error {
	s := a.shards[int(g.seq)%len(a.shards)]
	select {
	case <-a.shardsStopped:
		s.accept(g)
		return nil
	default:
	}
	select {
	case s.ch <- g:
		return nil
	case <-a.shardsStopped:
		s.accept(g)
		return nil
	case <-a.p.stop:
		return ErrClosed
	}
}

// run is one shard goroutine: it consumes routed reports until the
// channel closes, sweeping its own stale sequences on a timer and
// re-evaluating the quorum gate when poked.
func (s *shard) run() {
	defer s.a.shardWG.Done()
	tick := time.NewTicker(sweepInterval(s.a.p.cfg.SeqTTL))
	defer tick.Stop()
	for {
		select {
		case g, ok := <-s.ch:
			if !ok {
				return
			}
			s.accept(g)
		case <-tick.C:
			s.sweep(s.a.p.now())
		case <-s.live:
			s.reevaluate()
		case <-s.a.p.stop:
			return
		}
	}
}

func sweepInterval(ttl time.Duration) time.Duration {
	iv := ttl / 4
	if iv < 10*time.Millisecond {
		iv = 10 * time.Millisecond
	}
	return iv
}

// accept folds one online report into its sequence group and fuses the
// group once complete. Only this shard creates groups for its
// sequences, so the unlocked existence probe cannot race an insert; a
// new group's pending slot is reserved before the lock is retaken, so
// the cross-shard cap eviction never runs under a shard lock.
func (s *shard) accept(g *report) {
	a := s.a
	s.mu.Lock()
	_, dup := s.done[g.seq]
	_, exists := s.online[g.seq]
	s.mu.Unlock()
	if dup {
		a.p.c.lateReports.Add(1)
		a.p.ins.lateReport()
		return
	}
	if !exists {
		a.reserve()
	}
	s.mu.Lock()
	if _, dup := s.done[g.seq]; dup {
		// A cap eviction driven from another shard can have evicted
		// g.seq's existing group while the lock was dropped — recheck.
		s.mu.Unlock()
		if !exists {
			a.pending.Add(-1)
		}
		a.p.c.lateReports.Add(1)
		a.p.ins.lateReport()
		return
	}
	grp := s.online[g.seq]
	if grp == nil {
		grp = &seqGroup{byReader: map[string]map[string][]float64{}, created: a.p.now()}
		s.online[g.seq] = grp
	}
	grp.byReader[g.reader] = g.evidence
	ready, degraded := s.takeIfReady(g.seq, grp)
	s.mu.Unlock()
	if ready {
		s.fuse(g.seq, grp, degraded)
	}
}

// takeIfReady checks the fusion gate for a pending group and, when it
// passes, removes the group and records its assembly — all under the
// shard lock. The caller fuses outside the lock.
func (s *shard) takeIfReady(seq uint32, grp *seqGroup) (ready, degraded bool) {
	a := s.a
	if len(grp.byReader) < a.p.cfg.ExpectReaders {
		if !a.quorumReady(grp) {
			return false, false
		}
		degraded = true
	}
	delete(s.online, seq)
	a.pending.Add(-1)
	now := a.p.now()
	s.done[seq] = now
	a.p.c.sequencesAssembled.Add(1)
	a.p.ins.sequenceAssembled()
	// The assemble span runs from the group's creation (first report
	// of the sequence) to completion: cross-reader skew, not CPU time.
	a.p.ins.span(stageAssemble, grp.created).EndAt(now)
	a.p.cfg.Tracer.Active(seq).Span(tracing.StageAssemble, "", "", grp.created, now, 0)
	return true, degraded
}

// quorumReady reports whether an incomplete sequence may fuse in
// degraded mode: a LiveReaders oracle is configured, every live
// expected reader has reported, and at least two of the reporting
// readers carry non-collinear arrays (Eq. 15's likelihood product
// needs two crossing bearing constraints to pin a point).
func (a *assembler) quorumReady(grp *seqGroup) bool {
	oracle := a.p.cfg.LiveReaders
	if oracle == nil {
		return false
	}
	for _, id := range oracle() {
		if _, expected := a.p.cfg.Arrays[id]; !expected {
			continue
		}
		if _, reported := grp.byReader[id]; !reported {
			return false
		}
	}
	arrs := make([]*rf.Array, 0, len(grp.byReader))
	for id := range grp.byReader {
		if arr := a.p.cfg.Arrays[id]; arr != nil {
			arrs = append(arrs, arr)
		}
	}
	for i := 0; i < len(arrs); i++ {
		for j := i + 1; j < len(arrs); j++ {
			if nonCollinear(arrs[i], arrs[j]) {
				return true
			}
		}
	}
	return false
}

// nonCollinear reports whether two arrays constrain two independent
// axes: their axes are not parallel, or they are parallel but offset
// sideways (two facing walls still triangulate; two arrays end-to-end
// on the same line do not).
func nonCollinear(a, b *rf.Array) bool {
	const eps = 1e-9
	if cz := a.Axis.X*b.Axis.Y - a.Axis.Y*b.Axis.X; cz > eps || cz < -eps {
		return true
	}
	d := b.Center().Sub(a.Center())
	oz := a.Axis.X*d.Y - a.Axis.Y*d.X
	return oz > eps || oz < -eps
}

// reevaluate re-runs the fusion gate over this shard's pending
// sequences; run when the live-reader set changes (a reader going down
// may make already-received evidence sufficient). Sequence order keeps
// a burst of unblocked sequences deterministic within the shard.
func (s *shard) reevaluate() {
	s.mu.Lock()
	pending := make([]uint32, 0, len(s.online))
	for seq := range s.online {
		pending = append(pending, seq)
	}
	s.mu.Unlock()
	sort.Slice(pending, func(i, j int) bool { return pending[i] < pending[j] })
	for _, seq := range pending {
		s.mu.Lock()
		grp := s.online[seq]
		var ready, degraded bool
		if grp != nil {
			ready, degraded = s.takeIfReady(seq, grp)
		}
		s.mu.Unlock()
		if ready {
			s.fuse(seq, grp, degraded)
		}
	}
}

// fuse builds drop views for one complete (or quorum-degraded)
// sequence and localizes. Runs on the owning shard's goroutine with no
// shard lock held, in the shard's fusion scratch; the fuser is
// read-locked for view building only.
func (s *shard) fuse(seq uint32, grp *seqGroup, degraded bool) {
	a := s.a
	start := a.p.now()
	span := a.p.ins.span(stageFuse, start)
	trc := a.p.cfg.Tracer.Active(seq)
	if degraded {
		trc.MarkDegraded()
		trc.Event(tracing.EventDegradedQuorum,
			fmt.Sprintf("%d/%d readers", len(grp.byReader), a.p.cfg.ExpectReaders), start)
		if l := a.p.cfg.Logger; l != nil {
			l.Warn("degraded fusion", "seq", seq, "trace", trc.ID(),
				"reported", len(grp.byReader), "expected", a.p.cfg.ExpectReaders)
		}
	}
	// Deterministic view order: likelihood products are commutative
	// but not associative in floating point, so a stable order keeps
	// fixes bit-identical across runs, worker counts, and shard counts.
	ids := make([]string, 0, len(grp.byReader))
	for id := range grp.byReader {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	views, indexes := s.views[:0], s.viewIdx[:0]
	a.fuserMu.RLock()
	for _, id := range ids {
		if v := a.fuser.BuildView(id, grp.byReader[id]); v != nil {
			views = append(views, v)
			indexes = append(indexes, a.indexes[id])
		}
	}
	a.fuserMu.RUnlock()
	fix := Fix{Seq: seq, Views: len(views), Readers: ids, Degraded: degraded, TraceID: trc.ID()}
	if len(views) < 2 {
		fix.Err = fmt.Errorf("pipeline: seq %d: evidence from only %d readers", seq, len(views))
	} else if res, err := s.search.LocalizeIndexed(views, indexes, a.p.cfg.Grid, a.p.cfg.Loc); err != nil {
		fix.Err = err
	} else {
		fix.Pos = res.Pos
		fix.Confidence = res.Confidence
	}
	// Keep the scratch's capacity but not this sequence's views, so
	// the scratch does not pin their drop arrays until the next fuse.
	clear(views)
	s.views, s.viewIdx = views, indexes
	end := a.p.now()
	a.p.fuseHist.ObserveDuration(span.EndAt(end))
	trc.Span(tracing.StageFuse, "", "", start, end, 0)
	outcome := tracing.OutcomeFix
	if fix.Err != nil {
		outcome = tracing.OutcomeMiss
		trc.Event(tracing.EventMiss, fix.Err.Error(), end)
	}
	a.p.cfg.Tracer.Finish(seq, outcome, end)
	if fix.Err != nil {
		a.p.c.misses.Add(1)
	} else {
		a.p.c.fixes.Add(1)
		if degraded {
			a.p.c.degradedFixes.Add(1)
		}
	}
	a.p.ins.fix(fix.Err == nil, degraded)
	// Subscribers see every outcome before the channel send, so a
	// slow Fixes consumer cannot starve the live position feed.
	for _, fn := range a.p.fixSubs {
		fn(fix)
	}
	select {
	case a.p.fixes <- fix:
	case <-a.p.stop:
	}
}

// sweep evicts sequence groups older than SeqTTL across every shard
// and prunes the done sets. Returns how many groups were evicted.
// During normal operation each shard sweeps itself on its own timer;
// this aggregate exists for drained-pipeline driving (tests, final
// flush accounting).
func (a *assembler) sweep(now time.Time) int {
	n := 0
	for _, s := range a.shards {
		n += s.sweep(now)
	}
	return n
}

// sweep evicts this shard's sequence groups older than SeqTTL and
// prunes its done set. Bookkeeping runs under the shard lock; tracer
// and logger calls (internally synchronized) run after.
func (s *shard) sweep(now time.Time) int {
	a := s.a
	type evicted struct {
		seq uint32
		grp *seqGroup
	}
	var evs []evicted
	s.mu.Lock()
	for seq, grp := range s.online {
		if now.Sub(grp.created) >= a.p.cfg.SeqTTL {
			delete(s.online, seq)
			a.pending.Add(-1)
			s.done[seq] = now
			evs = append(evs, evicted{seq, grp})
		}
	}
	for seq, t := range s.done {
		if now.Sub(t) >= 4*a.p.cfg.SeqTTL {
			delete(s.done, seq)
		}
	}
	s.mu.Unlock()
	for _, ev := range evs {
		a.p.c.sequencesEvicted.Add(1)
		a.p.ins.sequenceEvicted("ttl")
		trc := a.p.cfg.Tracer.Active(ev.seq)
		trc.Event(tracing.EventTTLEvicted,
			fmt.Sprintf("%d/%d readers after %v", len(ev.grp.byReader), a.p.cfg.ExpectReaders, now.Sub(ev.grp.created)), now)
		a.p.cfg.Tracer.Finish(ev.seq, tracing.OutcomeEvicted, now)
		if l := a.p.cfg.Logger; l != nil {
			l.Warn("sequence evicted", "seq", ev.seq, "trace", trc.ID(), "reason", "ttl",
				"reported", len(ev.grp.byReader), "expected", a.p.cfg.ExpectReaders)
		}
	}
	return len(evs)
}

// reserve claims one pending slot for a new sequence group. The
// compare-and-swap makes the cap check and the increment one step, so
// shards admitting sequences at once cannot both take the last slot;
// while the count sits at MaxPendingSeqs the globally oldest group is
// evicted first — the memory backstop when a reader dies and TTL has
// not fired yet.
func (a *assembler) reserve() {
	limit := int64(a.p.cfg.MaxPendingSeqs)
	for {
		n := a.pending.Load()
		if n < limit {
			if a.pending.CompareAndSwap(n, n+1) {
				return
			}
			continue
		}
		if !a.evictOldest() {
			// Every counted slot is another shard's reservation that
			// has not inserted its group yet; let it finish.
			runtime.Gosched()
		}
	}
}

// evictOldest evicts the globally oldest pending group and reports
// whether it found one. Shards are scanned one at a time (never two
// shard locks at once), so there is no lock ordering to violate; a
// group that fuses between the scan and the eviction just means the
// caller re-checks the count.
func (a *assembler) evictOldest() bool {
	var victim *shard
	var vseq uint32
	var vt time.Time
	for _, s := range a.shards {
		s.mu.Lock()
		for seq, grp := range s.online {
			if victim == nil || grp.created.Before(vt) {
				victim, vseq, vt = s, seq, grp.created
			}
		}
		s.mu.Unlock()
	}
	if victim == nil {
		return false
	}
	victim.evictCap(vseq)
	return true
}

// evictCap removes one group by sequence for the pending-cap backstop;
// a no-op if the group fused or was evicted since the caller's scan.
func (s *shard) evictCap(seq uint32) {
	a := s.a
	s.mu.Lock()
	grp := s.online[seq]
	if grp == nil {
		s.mu.Unlock()
		return
	}
	delete(s.online, seq)
	a.pending.Add(-1)
	now := a.p.now()
	s.done[seq] = now
	s.mu.Unlock()
	a.p.c.sequencesEvicted.Add(1)
	a.p.ins.sequenceEvicted("cap")
	trc := a.p.cfg.Tracer.Active(seq)
	trc.Event(tracing.EventCapEvicted,
		fmt.Sprintf("pending over %d", a.p.cfg.MaxPendingSeqs), now)
	a.p.cfg.Tracer.Finish(seq, tracing.OutcomeEvicted, now)
	if l := a.p.cfg.Logger; l != nil {
		l.Warn("sequence evicted", "seq", seq, "trace", trc.ID(), "reason", "cap")
	}
}

// pendingSequences reports how many sequences are mid-assembly from
// the shared atomic — a properly synchronized read that may lag a
// shard's map by one in-flight mutation, and is exact once the
// pipeline is drained.
func (a *assembler) pendingSequences() int { return int(a.pending.Load()) }

// onlineLen counts pending groups straight from the shard maps — the
// exact (locked) companion to pendingSequences, for tests and
// post-drain inspection.
func (a *assembler) onlineLen() int {
	n := 0
	for _, s := range a.shards {
		s.mu.Lock()
		n += len(s.online)
		s.mu.Unlock()
	}
	return n
}
