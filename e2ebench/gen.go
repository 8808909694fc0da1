package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"

	"dwatch/internal/api"
)

// sutProc is the generator's handle on the SUT child process.
type sutProc struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	enc    *json.Encoder
	dec    *json.Decoder
	addrs  sutAddrs
	launch time.Time
	exited bool
}

// launchSUT starts the SUT child and waits until it is composed (for
// live workloads: every environment adopted through the gateway).
func launchSUT(w workload, walRoot string) (*sutProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	p := &sutProc{cmd: exec.Command(exe, "sut")}
	p.cmd.Stderr = os.Stderr
	if p.stdin, err = p.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	p.launch = time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	p.enc, p.dec = json.NewEncoder(p.stdin), json.NewDecoder(stdout)
	if err := p.enc.Encode(sutConfig{Workload: w.name, WALRoot: walRoot}); err != nil {
		p.kill()
		return nil, err
	}
	var rep reply
	if err := p.dec.Decode(&rep); err != nil || rep.Err != "" || rep.Addrs == nil {
		p.kill()
		return nil, fmt.Errorf("sut start: %v %s", err, rep.Err)
	}
	p.addrs = *rep.Addrs
	return p, nil
}

func (p *sutProc) call(req request) (reply, error) {
	if err := p.enc.Encode(req); err != nil {
		return reply{}, fmt.Errorf("sut %s: %w", req.Op, err)
	}
	var rep reply
	if err := p.dec.Decode(&rep); err != nil {
		return reply{}, fmt.Errorf("sut %s: %w", req.Op, err)
	}
	if rep.Err != "" {
		return rep, fmt.Errorf("sut %s: %s", req.Op, rep.Err)
	}
	return rep, nil
}

// quit shuts the SUT down gracefully and waits for it to exit,
// returning its final resource usage.
func (p *sutProc) quit() (reply, error) {
	rep, err := p.call(request{Op: "quit"})
	p.stdin.Close()
	p.exited = true
	if werr := p.cmd.Wait(); err == nil && werr != nil {
		err = fmt.Errorf("sut exit: %w", werr)
	}
	return rep, err
}

// kill stops the SUT on error paths and waits for it.
func (p *sutProc) kill() {
	if p.exited {
		return
	}
	p.exited = true
	_ = p.cmd.Process.Kill()
	p.stdin.Close()
	_ = p.cmd.Wait()
}

// metric sums a registry snapshot's series of one family whose labels
// contain every given `k="v"` pair.
func metric(s map[string]float64, name string, labels ...string) float64 {
	var v float64
	for id, x := range s {
		fam, lbl, _ := strings.Cut(id, "{")
		if fam != name {
			continue
		}
		ok := true
		for _, l := range labels {
			ok = ok && strings.Contains(lbl, l)
		}
		if ok {
			v += x
		}
	}
	return v
}

// waitWatchers blocks until the SUT's hub has n attached watchers: the
// watcher's stream is then live end to end.
func (p *sutProc) waitWatchers(n int) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		rep, err := p.call(request{Op: "metrics"})
		if err != nil {
			return err
		}
		if metric(rep.Metrics, "dwatch_broker_watchers") >= float64(n) {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return errors.New("watcher did not attach within 30s")
}

// watcher reads fixes back over SSE and files them by epoch: one epoch
// per delivery phase (warm-up, window, recovery cycle).
type watcher struct {
	cancel context.CancelFunc
	done   chan error
	once   sync.Once

	mu     sync.Mutex
	envIdx map[string]int
	epoch  int
	frames map[int][]frame
	seen   map[int]map[roundKey]int64 // epoch → round → first receipt
	notify chan struct{}
}

func startWatcher(base, env string, envIdx map[string]int) *watcher {
	ctx, cancel := context.WithCancel(context.Background())
	w := &watcher{
		cancel: cancel, done: make(chan error, 1), envIdx: envIdx,
		frames: map[int][]frame{}, seen: map[int]map[roundKey]int64{},
		notify: make(chan struct{}, 1),
	}
	go func() {
		w.done <- api.NewClient(base).WatchPositions(ctx, env, func(_ []byte, p api.Position) error {
			recv := time.Now().UnixNano()
			w.mu.Lock()
			k := roundKey{w.envIdx[p.Env], p.Seq}
			w.frames[w.epoch] = append(w.frames[w.epoch], frame{
				key: k, x: p.X, y: p.Y, conf: p.Confidence, views: p.Views,
				traceID: p.TraceID, pub: p.Time.UnixNano(), recv: recv,
			})
			seen := w.seen[w.epoch]
			if seen == nil {
				seen = map[roundKey]int64{}
				w.seen[w.epoch] = seen
			}
			if _, dup := seen[k]; !dup {
				seen[k] = recv
			}
			w.mu.Unlock()
			select {
			case w.notify <- struct{}{}:
			default:
			}
			return nil
		})
	}()
	return w
}

// setEpoch files every later frame under epoch e.
func (w *watcher) setEpoch(e int) {
	w.mu.Lock()
	w.epoch = e
	w.mu.Unlock()
}

// count reports how many of want have arrived in epoch e, and the
// latest first-arrival among them.
func (w *watcher) count(e int, want []roundKey) (int, int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n, last := 0, int64(0)
	for _, k := range want {
		if t, ok := w.seen[e][k]; ok {
			n++
			last = max(last, t)
		}
	}
	return n, last
}

// waitAll blocks until every round in want has a frame in epoch e, or
// the timeout passes; it returns the latest first-arrival.
func (w *watcher) waitAll(e int, want []roundKey, timeout time.Duration) (int64, bool) {
	deadline := time.After(timeout)
	for {
		n, last := w.count(e, want)
		if n == len(want) {
			return last, true
		}
		select {
		case <-w.notify:
		case <-time.After(20 * time.Millisecond):
		case <-deadline:
			return last, false
		}
	}
}

func (w *watcher) epochFrames(e int) []frame {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]frame(nil), w.frames[e]...)
}

// close ends the stream and waits for the reader goroutine.
func (w *watcher) close() {
	w.once.Do(func() {
		w.cancel()
		<-w.done
	})
}

// sender replays a timetable open-loop over one connection. The clock
// and transport are fields so the timing rules can be tested.
type sender struct {
	now    func() time.Time
	sleep  func(time.Duration)
	send   func([]byte) error
	onLast func(roundKey) // called once a round's last report is sent
}

// sendStats are the generator-side spans of one window, in ns.
type sendStats struct {
	lag, dur []float64
}

// run sends every item at (or as soon as possible after) t0 + at. A
// send blocked by the SUT delays the next one; that delay is the SUT's,
// so generator lag counts only lateness past both the due time and the
// end of the previous send. Round latency is timed from the due time
// regardless, so a stall counts against every round queued behind it.
func (s *sender) run(t0 time.Time, items []send) (sendStats, error) {
	var st sendStats
	var prevEnd time.Time
	for _, it := range items {
		due := t0.Add(it.at)
		if d := due.Sub(s.now()); d > 0 {
			s.sleep(d)
		}
		start := s.now()
		ready := due
		if prevEnd.After(ready) {
			ready = prevEnd
		}
		st.lag = append(st.lag, float64(max(0, start.Sub(ready))))
		if err := s.send(it.payload); err != nil {
			return st, err
		}
		prevEnd = s.now()
		st.dur = append(st.dur, float64(prevEnd.Sub(start)))
		if it.last && s.onLast != nil {
			s.onLast(it.key)
		}
	}
	return st, nil
}
