package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dwatch/internal/geom"
	"dwatch/internal/llrp"
)

// Validity bounds: a run that breaks one is reported invalid with its
// reason instead of being folded into the numbers.
const (
	maxGenLagP99 = 10 * time.Millisecond // generator's own lateness
	fixBudget    = 500 * time.Millisecond
	warmTimeout  = 2 * time.Minute
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	rate     float64 // overrides the pinned rate (capacity probing)
	setups   int
	work     string
}

// bench carries one run's shared state.
type bench struct {
	o       options
	w       workload
	streams []*stream
	ref     *reference
	envIdx  map[string]int
	epoch   int

	attempted, failed int
	invalid           []string
}

// phase is what one measured window (live) or set of recovery cycles
// delivered.
type phase struct {
	lat, errs, pubToRecv []float64 // ms, m, µs
	fixes, targets       int
	seconds              float64 // denominator of fixes_per_s
	cpuNs                int64
	m0, m1               map[string]float64
	wallS                float64
	sends                sendStats
	dueNs                map[string]int64 // trace ID → due time (traced phases)
	recvNs               map[string]int64
	pubNs                map[string]int64
	addS, recoverS       []float64 // per recovery cycle
	slow                 float64   // host slowdown over the phase (hostProbe)
}

func (b *bench) note(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

func (b *bench) bad(format string, args ...any) {
	b.invalid = append(b.invalid, fmt.Sprintf(format, args...))
}

// account adds one epoch's oracle verdict to the run's totals.
func (b *bench) account(what string, v verdict) {
	b.attempted += v.expected
	b.failed += v.failed()
	b.note("oracle %-12s %s", what, v)
}

func (b *bench) nextEpoch(wt *watcher) int {
	b.epoch++
	wt.setEpoch(b.epoch)
	return b.epoch
}

// generate builds every environment's stream on two goroutines
// (generation is sequential within one scenario).
func (b *bench) generate(targets int) error {
	points := map[int64][]geom.Point{} // by config seed
	if b.w.coveredOnly {
		for _, e := range b.w.envs {
			pts, err := coveredLattice(e.cfg)
			if err != nil {
				return err
			}
			points[e.cfg.Seed] = pts
		}
	}
	b.streams = make([]*stream, len(b.w.envs))
	b.envIdx = map[string]int{}
	errs := make([]error, len(b.w.envs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(b.w.envs); i = int(next.Add(1) - 1) {
				e := b.w.envs[i]
				b.streams[i], errs[i] = buildStream(i, e, b.o.seed, targets, points[e.cfg.Seed])
			}
		}()
	}
	wg.Wait()
	for i, e := range b.w.envs {
		if errs[i] != nil {
			return errs[i]
		}
		b.envIdx[e.id] = i
	}
	return nil
}

// keys lists the round keys of rounds [from, to) of every stream.
func (b *bench) keys(from, to int) []roundKey {
	var out []roundKey
	for e, st := range b.streams {
		for _, rd := range st.rounds[from:to] {
			out = append(out, roundKey{e, rd.seq})
		}
	}
	return out
}

// wanted filters keys to the rounds the reference fixes.
func (b *bench) wanted(keys []roundKey) []roundKey {
	var out []roundKey
	for _, k := range keys {
		if _, ok := b.ref.fixes[k]; ok {
			out = append(out, k)
		}
	}
	return out
}

func (b *bench) truth(k roundKey) geom.Point { return b.streams[k.env].rounds[k.seq-1].truth }

// collectFixes reduces an epoch's first arrivals of wanted rounds into
// latency, error and delivery samples; due gives each round's due time.
func (b *bench) collectFixes(ph *phase, frames []frame, want []roundKey, due func(roundKey) int64, late bool) {
	wanted := map[roundKey]bool{}
	for _, k := range want {
		wanted[k] = true
	}
	seen := map[roundKey]bool{}
	for _, f := range frames {
		if !wanted[f.key] || seen[f.key] {
			continue
		}
		seen[f.key] = true
		d := due(f.key)
		lat := time.Duration(f.recv - d)
		if late && lat > fixBudget {
			b.failed++
		}
		ph.fixes++
		ph.lat = append(ph.lat, float64(lat)/1e6)
		t := b.truth(f.key)
		ph.errs = append(ph.errs, math.Hypot(f.x-t.X, f.y-t.Y))
		ph.pubToRecv = append(ph.pubToRecv, float64(f.recv-f.pub)/1e3)
		if ph.dueNs != nil {
			ph.dueNs[f.traceID], ph.recvNs[f.traceID], ph.pubNs[f.traceID] = d, f.recv, f.pub
		}
	}
}

func (b *bench) metricsSnap(p *sutProc) (map[string]float64, error) {
	rep, err := p.call(request{Op: "metrics"})
	return rep.Metrics, err
}

// runLive drives library-loaded and fleet-paced: set-up (repeated),
// the measured window (plus a traced one), then a restart that replays
// the live WAL.
func (b *bench) runLive() (*summary, error) {
	// A traced run splits the window: untraced first half, traced second.
	windows, secs := 1, b.o.seconds
	if b.o.trace {
		windows, secs = 2, b.o.seconds/2
	}
	perWindow := int(math.Round(b.w.rate * secs))
	warmEnd := 2 + b.w.warm
	n := warmEnd + perWindow*windows
	if err := b.generate(n - 2); err != nil {
		return nil, err
	}
	ref, err := buildReference(filepath.Join(b.o.work, "oracle"), b.streams, n)
	if err != nil {
		return nil, err
	}
	b.ref = ref
	b.note("reference parity %v", ref.parity)

	sum := &summary{}
	var p *sutProc
	var wt *watcher
	var conn *llrp.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
		if wt != nil {
			wt.close()
		}
		if p != nil {
			p.kill()
		}
	}()
	warmKeys := b.keys(0, warmEnd)
	for i := 0; i < b.o.setups; i++ {
		hp := startProbe()
		if p, err = launchSUT(b.w, filepath.Join(b.o.work, fmt.Sprintf("sut-%d", i))); err != nil {
			return nil, err
		}
		base, env := p.addrs.Node, ""
		if b.w.gateway {
			base, env = p.addrs.Gateway, b.w.envs[0].id
		}
		wt = startWatcher(base, env, b.envIdx)
		if err := p.waitWatchers(1); err != nil {
			return nil, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		conn, err = llrp.Dial(ctx, p.addrs.LLRP)
		cancel()
		if err != nil {
			return nil, err
		}
		e := b.nextEpoch(wt)
		for k := 0; k < warmEnd; k++ {
			for _, st := range b.streams {
				for _, payload := range st.rounds[k].reports {
					if _, err := conn.Send(llrp.MsgROAccessReport, payload); err != nil {
						return nil, err
					}
				}
			}
		}
		if _, ok := wt.waitAll(e, b.wanted(warmKeys), warmTimeout); !ok {
			return nil, fmt.Errorf("set-up %d: warm-up fixes did not all arrive", i)
		}
		sum.setup = append(sum.setup, time.Since(p.launch).Seconds())
		sum.setupSlow = append(sum.setupSlow, hp.end())
		b.account(fmt.Sprintf("warm-up %d", i), b.ref.check(wt.epochFrames(e), warmKeys))
		if i == b.o.setups-1 {
			break
		}
		conn.Close()
		conn = nil
		wt.close()
		wt = nil
		if _, err := p.quit(); err != nil {
			return nil, err
		}
		p = nil
	}

	for win := 0; win < windows; win++ {
		traced := win == 1
		from := warmEnd + win*perWindow
		ph, err := b.liveWindow(p, wt, conn, from, from+perWindow, traced)
		if err != nil {
			return nil, err
		}
		if traced {
			sum.traced = ph
			if err := b.collect(p, sum); err != nil {
				return nil, err
			}
		} else {
			sum.main = ph
		}
	}
	conn.Close()
	conn = nil

	// Restart: the env's dark time replaying everything this node
	// logged under load.
	e := b.nextEpoch(wt)
	hp := startProbe()
	rep, err := p.call(request{Op: "restart"})
	if err != nil {
		hp.end()
		return nil, err
	}
	all := b.keys(0, n)
	want := b.wanted(all)
	last, ok := wt.waitAll(e, want, 3*time.Minute)
	sum.recoverSlow = hp.end()
	if !ok {
		b.bad("restart: replayed fixes did not all arrive")
	}
	sum.recover = []float64{float64(last-rep.AddStart) / 1e9}
	sum.addS = []float64{rep.AddS}
	b.account("restart", b.ref.check(wt.epochFrames(e), all))
	return sum, b.finish(p, wt, sum)
}

// liveWindow sends rounds [from, to) on the open-loop timetable and
// measures what the watcher receives.
func (b *bench) liveWindow(p *sutProc, wt *watcher, conn *llrp.Conn, from, to int, traced bool) (*phase, error) {
	ph := &phase{}
	if traced {
		ph.dueNs, ph.recvNs, ph.pubNs = map[string]int64{}, map[string]int64{}, map[string]int64{}
		if _, err := p.call(request{Op: "trace", On: true}); err != nil {
			return nil, err
		}
	}
	sends, due := schedule(b.w, b.streams, from, to, b.o.seed)
	keys := b.keys(from, to)
	want := b.wanted(keys)
	e := b.nextEpoch(wt)
	ru0, err := b.settle(p)
	if err != nil {
		return nil, err
	}
	if ph.m0, err = b.metricsSnap(p); err != nil {
		return nil, err
	}

	var sentRefs atomic.Int64
	snd := sender{
		now: time.Now, sleep: time.Sleep,
		send: func(payload []byte) error {
			_, err := conn.Send(llrp.MsgROAccessReport, payload)
			return err
		},
		onLast: func(k roundKey) {
			if _, ok := b.ref.fixes[k]; ok {
				sentRefs.Add(1)
			}
		},
	}
	hp := startProbe()
	t0 := time.Now().Add(20 * time.Millisecond)
	var backlog []float64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				got, _ := wt.count(e, want)
				backlog = append(backlog, float64(sentRefs.Load()-int64(got)))
			}
		}
	}()
	ph.sends, err = snd.run(t0, sends)
	close(stop)
	<-sampled
	if err != nil {
		hp.end()
		return nil, err
	}
	var lastDue time.Duration
	for _, d := range due {
		lastDue = max(lastDue, d)
	}
	last, _ := wt.waitAll(e, want, time.Until(t0.Add(lastDue+2*fixBudget)))
	ph.slow = hp.end()
	ru1, err := p.call(request{Op: "rusage"})
	if err != nil {
		return nil, err
	}
	if ph.m1, err = b.metricsSnap(p); err != nil {
		return nil, err
	}
	if traced {
		if _, err := p.call(request{Op: "trace", On: false}); err != nil {
			return nil, err
		}
	}
	ph.cpuNs = ru1.CPUNs - ru0.CPUNs
	ph.wallS = time.Since(t0).Seconds()
	frames := wt.epochFrames(e)
	b.account(fmt.Sprintf("window %d", e), b.ref.check(frames, keys))
	b.attempted += len(sends)
	b.collectFixes(ph, frames, want, func(k roundKey) int64 { return t0.Add(due[k]).UnixNano() }, true)
	ph.targets = 0
	for _, k := range keys {
		if b.streams[k.env].rounds[k.seq-1].target {
			ph.targets++
		}
	}
	ph.seconds = time.Unix(0, last).Sub(t0).Seconds()

	if lag := time.Duration(quantile(ph.sends.lag, 0.99)); lag > maxGenLagP99 {
		b.bad("generator lag p99 %v exceeds %v", lag, maxGenLagP99)
	}
	if q := len(backlog) / 4; q > 0 {
		head, tail := mean(backlog[:q]), mean(backlog[len(backlog)-q:])
		if slack := math.Max(10, 0.1*b.w.rate*float64(len(b.w.envs))); tail-head > slack {
			b.bad("backlog grew from %.1f to %.1f rounds across the window", head, tail)
		}
	}
	b.note("window %d: %d rounds, %d fixes, backlog samples %d, generator lag p99 %.3f ms max %.3f ms",
		e, len(keys), ph.fixes, len(backlog), quantile(ph.sends.lag, 0.99)/1e6, quantile(ph.sends.lag, 1)/1e6)
	return ph, nil
}

// runRecover drives wal-recover: each cycle removes the env and adds it
// back, which replays the generator-written WAL unthrottled.
func (b *bench) runRecover() (*summary, error) {
	n := 2 + b.w.walRounds
	if err := b.generate(b.w.walRounds); err != nil {
		return nil, err
	}
	walRoot := filepath.Join(b.o.work, "walroot")
	ref, err := buildReference(walRoot, b.streams, n)
	if err != nil {
		return nil, err
	}
	b.ref = ref
	b.note("reference parity %v", ref.parity)
	all := b.keys(0, n)
	want := b.wanted(all)
	var targets int
	for _, k := range all {
		if b.truth(k) != (geom.Point{}) {
			targets++
		}
	}

	sum := &summary{}
	var p *sutProc
	var wt *watcher
	defer func() {
		if wt != nil {
			wt.close()
		}
		if p != nil {
			p.kill()
		}
	}()
	cycle := func(ph *phase) error {
		e := b.nextEpoch(wt)
		rep, err := p.call(request{Op: "restart"})
		if err != nil {
			return err
		}
		last, ok := wt.waitAll(e, want, 3*time.Minute)
		if !ok {
			b.bad("recovery cycle %d: replayed fixes did not all arrive", e)
		}
		frames := wt.epochFrames(e)
		b.account(fmt.Sprintf("cycle %d", e), b.ref.check(frames, all))
		if ph != nil {
			b.collectFixes(ph, frames, want, func(roundKey) int64 { return rep.AddStart }, false)
			ph.targets += targets
			ph.seconds += float64(last-rep.AddStart) / 1e9
			ph.recoverS = append(ph.recoverS, float64(last-rep.AddStart)/1e9)
			ph.addS = append(ph.addS, rep.AddS)
		}
		return nil
	}
	for i := 0; i < b.o.setups; i++ {
		hp := startProbe()
		if p, err = launchSUT(b.w, walRoot); err != nil {
			return nil, err
		}
		wt = startWatcher(p.addrs.Node, "", b.envIdx)
		if err := p.waitWatchers(1); err != nil {
			return nil, err
		}
		if err := cycle(nil); err != nil {
			return nil, err
		}
		sum.setup = append(sum.setup, time.Since(p.launch).Seconds())
		sum.setupSlow = append(sum.setupSlow, hp.end())
		if i == b.o.setups-1 {
			break
		}
		wt.close()
		wt = nil
		if _, err := p.quit(); err != nil {
			return nil, err
		}
		p = nil
	}

	phases, secs := 1, b.o.seconds
	if b.o.trace {
		phases, secs = 2, b.o.seconds/2
	}
	for k := 0; k < phases; k++ {
		traced := k == 1
		ph := &phase{}
		if traced {
			ph.dueNs, ph.recvNs, ph.pubNs = map[string]int64{}, map[string]int64{}, map[string]int64{}
			if _, err := p.call(request{Op: "trace", On: true}); err != nil {
				return nil, err
			}
		}
		ru0, err := b.settle(p)
		if err != nil {
			return nil, err
		}
		if ph.m0, err = b.metricsSnap(p); err != nil {
			return nil, err
		}
		hp := startProbe()
		start := time.Now()
		for c := 0; c < recoverCycles(secs); c++ {
			if err := cycle(ph); err != nil {
				hp.end()
				return nil, err
			}
		}
		ph.slow = hp.end()
		ru1, err := p.call(request{Op: "rusage"})
		if err != nil {
			return nil, err
		}
		if ph.m1, err = b.metricsSnap(p); err != nil {
			return nil, err
		}
		ph.cpuNs = ru1.CPUNs - ru0.CPUNs
		ph.wallS = time.Since(start).Seconds()
		if traced {
			if _, err := p.call(request{Op: "trace", On: false}); err != nil {
				return nil, err
			}
			sum.traced = ph
			if err := b.collect(p, sum); err != nil {
				return nil, err
			}
		} else {
			sum.main = ph
		}
	}
	sum.recover, sum.addS, sum.recoverSlow = sum.main.recoverS, sum.main.addS, sum.main.slow
	return sum, b.finish(p, wt, sum)
}

// finish runs the end-of-run guards (WAL scan, refused reports,
// abandoned traces) and shuts the SUT down.
func (b *bench) finish(p *sutProc, wt *watcher, sum *summary) error {
	scan, err := p.call(request{Op: "scan"})
	if err != nil {
		return err
	}
	if scan.Damage != "" {
		b.bad("WAL scan reports damage: %s", scan.Damage)
	}
	if scan.ScanSeconds > 0 {
		sum.scanMBps = float64(scan.ScanBytes) / scan.ScanSeconds / 1e6
	}
	st, err := p.call(request{Op: "status"})
	if err != nil {
		return err
	}
	if st.Refused > 0 {
		b.failed += int(st.Refused)
		b.bad("SUT refused %d reports (first: %s)", st.Refused, st.FirstErr)
	}
	m, err := b.metricsSnap(p)
	if err != nil {
		return err
	}
	if a := metric(m, "dwatch_tracing_abandoned_total"); a > 0 {
		b.bad("dwatch_tracing_abandoned_total moved to %v", a)
	}
	wt.close()
	rep, err := p.quit()
	if err != nil {
		return err
	}
	sum.peakRSSMB = float64(rep.MaxRSSKB) / 1024
	return nil
}

// settle collects garbage in both processes, so every measured phase
// starts from the same heap state, then reads the SUT's CPU clock.
func (b *bench) settle(p *sutProc) (reply, error) {
	runtime.GC()
	if _, err := p.call(request{Op: "settle"}); err != nil {
		return reply{}, err
	}
	return p.call(request{Op: "rusage"})
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// workDir is the run's scratch space inside the checkout.
func workDir() (string, error) {
	dir := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	return dir, os.MkdirAll(dir, 0o755)
}
