package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dwatch/internal/api"
	"dwatch/internal/cluster"
	"dwatch/internal/fleet"
	"dwatch/internal/llrp"
	"dwatch/internal/obs"
	"dwatch/internal/serve"
	"dwatch/internal/sim"
	"dwatch/internal/tracing"
	"dwatch/internal/wal"
)

// The system under test runs as a child process ("e2ebench sut"),
// composed from the product's public packages the way dwatchd's
// clustered fleet mode composes them. It reads one JSON config line and
// then one JSON request per line on stdin, and answers each with one
// JSON line on stdout.

type sutConfig struct {
	Workload string `json:"workload"`
	WALRoot  string `json:"wal_root"`
}

type sutAddrs struct {
	LLRP    string `json:"llrp,omitempty"`
	Node    string `json:"node"`
	Gateway string `json:"gateway,omitempty"`
}

type request struct {
	Op string `json:"op"`
	On bool   `json:"on,omitempty"`
}

type reply struct {
	Err string `json:"err,omitempty"`

	Addrs *sutAddrs `json:"addrs,omitempty"`

	// rusage
	CPUNs    int64 `json:"cpu_ns,omitempty"`
	MaxRSSKB int64 `json:"maxrss_kb,omitempty"`

	Metrics obs.Snapshot `json:"metrics,omitempty"`

	// restart
	AddStart int64   `json:"add_start,omitempty"`
	AddS     float64 `json:"add_s,omitempty"`

	// scan
	ScanBytes   int64   `json:"scan_bytes,omitempty"`
	ScanSeconds float64 `json:"scan_seconds,omitempty"`
	Damage      string  `json:"damage,omitempty"`

	// status
	Refused  uint64 `json:"refused,omitempty"`
	FirstErr string `json:"first_err,omitempty"`

	// collect
	Traces    []fixTrace         `json:"traces,omitempty"`
	Spans     map[string]float64 `json:"spans,omitempty"`
	QueueMax  int                `json:"queue_max,omitempty"`
	Collected int                `json:"collected,omitempty"`
}

// fixTrace is one fix's critical path, read from its pipeline trace:
// the ingest span and spectrum spans of the report whose spectra
// finished last, then assembly and fusion.
type fixTrace struct {
	TraceID  string     `json:"trace_id"`
	Ingest   interval   `json:"ingest"`
	Spectrum []interval `json:"spectrum"`
	Assemble interval   `json:"assemble"`
	Fuse     interval   `json:"fuse"`
	Spectra  int        `json:"spectra"`
}

type sut struct {
	w     workload
	reg   *obs.Registry
	hub   *serve.Hub
	fleet *fleet.Fleet
	plane *serve.Server
	gw    *http.Server
	agent *cluster.Agent
	ln    *llrp.Server

	cancel    context.CancelFunc
	agentDone chan error

	refused  atomic.Uint64
	errMu    sync.Mutex
	firstErr string

	// col is non-nil while tracing; last is the collector most
	// recently stopped, which collect reads.
	col  atomic.Pointer[collector]
	last *collector
}

// runSUT is the child process's main.
func runSUT(in io.Reader, out io.Writer) int {
	br := bufio.NewReader(in)
	enc := json.NewEncoder(out)
	dec := json.NewDecoder(br)
	var cfg sutConfig
	if err := dec.Decode(&cfg); err != nil {
		fmt.Fprintln(os.Stderr, "sut: config:", err)
		return 2
	}
	w, ok := workloads()[cfg.Workload]
	if !ok {
		fmt.Fprintln(os.Stderr, "sut: unknown workload", cfg.Workload)
		return 2
	}
	s := &sut{w: w}
	addrs, err := s.start(cfg.WALRoot)
	if err != nil {
		_ = enc.Encode(reply{Err: err.Error()})
		return 1
	}
	if err := enc.Encode(reply{Addrs: addrs}); err != nil {
		return 1
	}
	for {
		var req request
		if err := dec.Decode(&req); err != nil {
			s.stop()
			return 0 // parent went away
		}
		rep := s.serve(req, cfg.WALRoot)
		if err := enc.Encode(rep); err != nil || req.Op == "quit" {
			return 0
		}
	}
}

// start composes the node: fleet with a WAL root at dwatchd's default
// fsync policy, the position hub and serve plane, and for live
// workloads an in-process gateway, an agent that adopts every
// environment through it, and an LLRP listener.
func (s *sut) start(walRoot string) (*sutAddrs, error) {
	s.reg = obs.NewRegistry()
	obs.RegisterBuildInfo(s.reg)
	obs.RegisterRuntime(s.reg)
	s.hub = serve.NewHub(serve.WithHubObs(s.reg))
	s.fleet = fleet.New(
		fleet.WithObs(s.reg),
		fleet.WithHub(s.hub),
		fleet.WithWALRoot(walRoot, wal.WithFsync(wal.FsyncInterval)),
	)
	s.plane = serve.New(
		serve.WithRegistry(s.reg),
		serve.WithHub(s.hub),
		serve.WithEnvs(s.fleet.Infos),
		serve.WithEnvLookup(s.fleet.EnvHandle),
		serve.WithReady(s.fleet.Ready),
	)
	nodeAddr, err := s.plane.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addrs := &sutAddrs{Node: "http://" + nodeAddr.String()}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	if !s.w.live {
		return addrs, nil
	}

	// A heartbeat cadence longer than any run keeps the agent from
	// re-adopting an environment the benchmark is restarting itself.
	dir := cluster.NewDirectory(cluster.WithHeartbeat(time.Hour))
	gln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.gw = &http.Server{Handler: cluster.NewGateway(dir).Handler()}
	go func() { _ = s.gw.Serve(gln) }()
	addrs.Gateway = "http://" + gln.Addr().String()

	catalog := map[string]sim.Config{}
	for _, e := range s.w.envs {
		catalog[e.id] = e.cfg
	}
	adopted := make(chan string, len(s.w.envs))
	s.agent = cluster.NewAgent("node-1", addrs.Node, addrs.Gateway, s.fleet, catalog,
		cluster.WithOnAdopt(func(id string) { adopted <- id }))
	s.agentDone = make(chan error, 1)
	go func() { s.agentDone <- s.agent.Run(ctx) }()
	timeout := time.After(2 * time.Minute)
	for range s.w.envs {
		select {
		case <-adopted:
		case <-timeout:
			return nil, errors.New("sut: environments not adopted within 2m")
		}
	}

	s.ln = &llrp.Server{Handler: llrp.HandlerFunc(s.handle)}
	la, err := s.ln.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() { _ = s.ln.Serve() }()
	addrs.LLRP = la.String()
	return addrs, nil
}

// handle is the one piece of glue fleet mode lacks: it routes each
// RO_ACCESS_REPORT to fleet.Ingest for the environment its reader-ID
// prefix names.
func (s *sut) handle(_ *llrp.Conn, msg llrp.Message) error {
	if msg.Type != llrp.MsgROAccessReport {
		return nil
	}
	c := s.col.Load()
	var t0 time.Time
	if c != nil {
		t0 = time.Now()
	}
	reader, seq, err := peek(msg.Payload)
	if err == nil {
		env, _, ok := strings.Cut(reader, "/")
		if !ok {
			err = fmt.Errorf("reader ID %q has no environment prefix", reader)
		} else {
			err = s.fleet.Ingest(env, msg.Payload)
		}
	}
	if c != nil {
		c.ingest(reportID{reader, seq}, t0, time.Now())
	}
	if err != nil {
		s.refused.Add(1)
		s.errMu.Lock()
		if s.firstErr == "" {
			s.firstErr = err.Error()
		}
		s.errMu.Unlock()
	}
	return nil
}

// peek reads the reader ID and sequence number, the report encoding's
// first two parameters, without decoding the snapshots.
func peek(payload []byte) (reader string, seq uint32, err error) {
	for i := 0; i < 2; i++ {
		if len(payload) < 4 {
			return "", 0, errors.New("truncated report header")
		}
		n := int(binary.BigEndian.Uint16(payload[2:4]))
		if n < 4 || n > len(payload) {
			return "", 0, errors.New("bad parameter length")
		}
		switch binary.BigEndian.Uint16(payload[0:2]) & 0x3FF {
		case llrp.ParamReaderID:
			reader = string(payload[4:n])
		case llrp.ParamSequence:
			if n != 8 {
				return "", 0, errors.New("bad sequence length")
			}
			seq = binary.BigEndian.Uint32(payload[4:8])
		}
		payload = payload[n:]
	}
	if reader == "" {
		return "", 0, errors.New("report carries no reader ID")
	}
	return reader, seq, nil
}

func (s *sut) serve(req request, walRoot string) reply {
	switch req.Op {
	case "rusage":
		return rusage()
	case "settle":
		runtime.GC()
		return reply{}
	case "metrics":
		return reply{Metrics: s.reg.Snapshot()}
	case "status":
		s.errMu.Lock()
		defer s.errMu.Unlock()
		return reply{Refused: s.refused.Load(), FirstErr: s.firstErr}
	case "trace":
		if req.On {
			s.col.Store(newCollector(s.fleet, s.hub, s.w.envs))
		} else if c := s.col.Swap(nil); c != nil {
			c.stop()
			s.last = c
		}
		return reply{}
	case "collect":
		return s.last.result()
	case "restart":
		return s.restart()
	case "scan":
		return scan(walRoot, s.w.envs)
	case "quit":
		s.stop()
		return rusage()
	}
	return reply{Err: "unknown op " + req.Op}
}

// restart removes every environment (graceful drain, WAL close) and
// adds it back, which replays its WAL — the call cluster.Agent makes
// on adoption.
func (s *sut) restart() reply {
	for _, e := range s.w.envs {
		if _, ok := s.fleet.Env(e.id); ok {
			if err := s.fleet.Remove(e.id); err != nil {
				return reply{Err: err.Error()}
			}
		}
	}
	start := time.Now()
	var took time.Duration
	for _, e := range s.w.envs {
		t := time.Now()
		if _, err := s.fleet.Add(e.id, e.cfg); err != nil {
			return reply{Err: err.Error()}
		}
		took += time.Since(t)
	}
	if c := s.col.Load(); c != nil {
		c.resolvePending()
	}
	return reply{AddStart: start.UnixNano(), AddS: took.Seconds()}
}

// scan times wal.Scan with a no-op callback over every environment's
// WAL.
func scan(root string, envs []envSpec) reply {
	var rep reply
	for _, e := range envs {
		dir := filepath.Join(root, e.id)
		ents, err := os.ReadDir(dir)
		if err != nil {
			return reply{Err: err.Error()}
		}
		for _, ent := range ents {
			if info, err := ent.Info(); err == nil && !ent.IsDir() {
				rep.ScanBytes += info.Size()
			}
		}
		t := time.Now()
		res, err := wal.Scan(dir, func(wal.Record) error { return nil })
		rep.ScanSeconds += time.Since(t).Seconds()
		if err != nil {
			return reply{Err: err.Error()}
		}
		if res.Damage != nil {
			rep.Damage = res.Damage.String()
		}
	}
	return rep
}

func (s *sut) stop() {
	s.cancel()
	if s.agent != nil {
		<-s.agentDone
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if s.ln != nil {
		_ = s.ln.Shutdown(ctx)
	}
	if c := s.col.Swap(nil); c != nil {
		c.stop()
	}
	s.fleet.Close()
	_ = s.plane.Shutdown(ctx)
	if s.gw != nil {
		_ = s.gw.Shutdown(ctx)
	}
}

func rusage() reply {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return reply{Err: err.Error()}
	}
	return reply{
		CPUNs:    ru.Utime.Nano() + ru.Stime.Nano(),
		MaxRSSKB: ru.Maxrss,
	}
}

// collector reads every published fix's trace through the env tracer
// while the ring still holds it, and samples queue depth.
type collector struct {
	fleet *fleet.Fleet
	envs  []envSpec

	cancel context.CancelFunc
	done   sync.WaitGroup

	mu sync.Mutex
	// pending holds positions published while their environment was
	// still being added (WAL replay runs before registration); they are
	// resolved once it is registered, if the trace ring still holds them.
	pending  []api.Position
	traces   []fixTrace
	ingestNs []float64
	glue     map[reportID]interval // each report's fleet.Ingest span
	queueMax int
	spans    map[string][]float64
}

func newCollector(f *fleet.Fleet, hub *serve.Hub, envs []envSpec) *collector {
	ctx, cancel := context.WithCancel(context.Background())
	c := &collector{
		fleet: f, envs: envs, cancel: cancel,
		spans: map[string][]float64{}, glue: map[reportID]interval{},
	}
	w := hub.Watch("")
	c.done.Add(2)
	go func() {
		defer c.done.Done()
		defer w.Close()
		for {
			frames, err := w.Next(ctx)
			if err != nil {
				return
			}
			for _, data := range frames {
				var p api.Position
				if json.Unmarshal(data, &p) == nil {
					c.fix(p)
				}
			}
		}
	}()
	go func() {
		defer c.done.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				c.sampleQueues()
			}
		}
	}()
	return c
}

func (c *collector) stop() {
	c.cancel()
	c.done.Wait()
}

// reportID names one report: its reader and acquisition sequence.
type reportID struct {
	reader string
	seq    uint32
}

// ingest records one report's fleet.Ingest span.
func (c *collector) ingest(id reportID, start, end time.Time) {
	c.mu.Lock()
	c.ingestNs = append(c.ingestNs, float64(end.Sub(start)))
	c.glue[id] = interval{start.UnixNano(), end.UnixNano()}
	c.mu.Unlock()
}

func (c *collector) sampleQueues() {
	depth := 0
	for _, e := range c.envs {
		if env, ok := c.fleet.Env(e.id); ok && env.Pipeline() != nil {
			depth = max(depth, env.Pipeline().Stats().QueueDepth)
		}
	}
	c.mu.Lock()
	c.queueMax = max(c.queueMax, depth)
	c.mu.Unlock()
}

// fix resolves one position's trace and reduces it to its critical
// path plus per-stage span durations.
func (c *collector) fix(p api.Position) {
	h, ok := c.fleet.EnvHandle(p.Env)
	if !ok {
		c.mu.Lock()
		c.pending = append(c.pending, p)
		c.mu.Unlock()
		return
	}
	if p.TraceID == "" {
		return
	}
	d, ok := h.Tracer.Get(p.TraceID)
	if !ok {
		return
	}
	ft := fixTrace{TraceID: p.TraceID}
	ingest := map[string]tracing.Span{}
	lastEnd := map[string]int64{}
	crit := ""
	add := map[string][]float64{}
	for _, sp := range d.Spans {
		switch sp.Stage {
		case tracing.StageIngest:
			ingest[sp.Reader] = sp
			add["ingest"] = append(add["ingest"], float64(sp.Duration()))
		case tracing.StageSpectrum:
			ft.Spectra++
			add["queue"] = append(add["queue"], float64(sp.Queue))
			add["compute"] = append(add["compute"], float64(sp.Compute()))
			if e := sp.End.UnixNano(); e > lastEnd[sp.Reader] {
				lastEnd[sp.Reader] = e
			}
		case tracing.StageAssemble:
			ft.Assemble = span(sp)
			add["assemble"] = append(add["assemble"], float64(sp.Duration()))
		case tracing.StageFuse:
			ft.Fuse = span(sp)
			add["fuse"] = append(add["fuse"], float64(sp.Duration()))
		}
	}
	for r, e := range lastEnd {
		if crit == "" || e > lastEnd[crit] {
			crit = r
		}
	}
	// The critical report's ingest is its whole fleet.Ingest call
	// (decode, WAL append, queue admission) when the glue timed it; a
	// WAL replay has only the pipeline's own ingest span.
	ft.Ingest = span(ingest[crit])
	c.mu.Lock()
	if glue, ok := c.glue[reportID{crit, p.Seq}]; ok {
		ft.Ingest = glue
	}
	c.mu.Unlock()
	for _, sp := range d.Spans {
		if sp.Stage == tracing.StageSpectrum && sp.Reader == crit {
			ft.Spectrum = append(ft.Spectrum, span(sp))
		}
	}
	c.mu.Lock()
	c.traces = append(c.traces, ft)
	for k, v := range add {
		c.spans[k] = append(c.spans[k], v...)
	}
	c.mu.Unlock()
}

// resolvePending retries the positions that arrived before their
// environment was registered.
func (c *collector) resolvePending() {
	c.mu.Lock()
	pending := c.pending
	c.pending = nil
	c.mu.Unlock()
	for _, p := range pending {
		c.fix(p)
	}
}

func span(sp tracing.Span) interval {
	if sp.Start.IsZero() {
		return interval{}
	}
	return interval{sp.Start.UnixNano(), sp.End.UnixNano()}
}

// result hands over what was collected (in nanoseconds) and resets.
func (c *collector) result() reply {
	if c == nil {
		return reply{Err: "tracing was never enabled"}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := reply{Traces: c.traces, QueueMax: c.queueMax, Collected: len(c.traces), Spans: map[string]float64{}}
	for k, v := range c.spans {
		rep.Spans[k+"_p50"] = quantile(v, 0.5)
		rep.Spans[k+"_p99"] = quantile(v, 0.99)
	}
	rep.Spans["fleet_ingest_p50"] = quantile(c.ingestNs, 0.5)
	rep.Spans["fleet_ingest_p99"] = quantile(c.ingestNs, 0.99)
	c.traces, c.ingestNs, c.queueMax = nil, nil, 0
	c.spans, c.glue = map[string][]float64{}, map[reportID]interval{}
	return rep
}
