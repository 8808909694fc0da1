package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"dwatch/internal/fleet"
	"dwatch/internal/llrp"
	"dwatch/internal/serve"
	"dwatch/internal/session"
	"dwatch/internal/sim"
)

// supervised is the outbound mode (-dial, -chaos): dwatchd dials the
// one environment's readers — the real LLRP direction — and a
// session.Supervisor keeps every connection alive through keepalive
// probing, backoff reconnect, and per-reader circuit breakers. With
// -chaos the readers are in-process simulations dialed through the
// deterministic fault injector, and one is killed and restarted
// mid-run to demonstrate degraded fixes and recovery.
type supervised struct {
	sup  *session.Supervisor
	sc   *sim.Scenario
	sims []*sim.ReaderEndpoint // -chaos only
}

// supervise builds the supervisor for environment id. Reports go
// through fleet.Ingest, so the WAL records them before dispatch.
func (d *daemon) supervise(id string, cfg sim.Config) (*supervised, error) {
	_, sc, err := fleet.Deployment(id, cfg)
	if err != nil {
		return nil, err
	}
	sv := &supervised{sc: sc}
	var eps []session.Endpoint
	if *dial != "" {
		if eps, err = parseDial(*dial); err != nil {
			return nil, err
		}
	} else {
		for _, rd := range sc.Readers {
			e := sim.NewReaderEndpoint(rd.ID, rd.Array.Elements)
			addr, err := e.Start("127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			sv.sims = append(sv.sims, e)
			eps = append(eps, session.Endpoint{ID: rd.ID, Addr: addr.String()})
		}
	}

	sopts := []session.Option{
		session.WithHandler(func(rep *llrp.ROAccessReport) error {
			payload, err := rep.Marshal()
			if err != nil {
				return err
			}
			return d.f.Ingest(id, payload)
		}),
		session.WithObs(d.reg),
		session.WithLogger(logger),
		// Log transitions and poke the assembler so pending sequences
		// re-evaluate against the new live set.
		session.WithOnState(func(reader string, st session.State) {
			logger.Info("reader state", "reader", reader, "state", st.String())
			if e, ok := d.f.Env(id); ok {
				e.Pipeline().NotifyLiveChange()
			}
		}),
	}
	if *chaos {
		// Compressed fault-handling cadence so a short demo run shows
		// down-detection, degraded fixes, and reconnect.
		sopts = append(sopts,
			session.WithKeepalive(llrp.KeepaliveOptions{
				Interval: 100 * time.Millisecond, Timeout: 200 * time.Millisecond, Missed: 2,
			}),
			session.WithBackoff(llrp.BackoffOptions{
				Base: 50 * time.Millisecond, Cap: 500 * time.Millisecond,
			}),
			session.WithBreaker(3, 500*time.Millisecond),
			session.WithJitterSeed(*chaosSeed),
			session.WithFaults(session.FaultConfig{
				Seed:      *chaosSeed,
				DelayProb: 0.05, // visible jitter without breaking frames
			}),
		)
	}
	sv.sup, err = session.New(eps, sopts...)
	return sv, err
}

// start connects the sessions and, with -chaos, drives the simulated
// readers.
func (sv *supervised) start(d *daemon) {
	sv.sup.Start()
	d.onStop = append(d.onStop, sv.stop)
	if len(sv.sims) > 0 {
		d.drive("chaos run", func() error { return sv.runChaos(d.ctx) })
	}
}

func (sv *supervised) stop() {
	sv.sup.Stop()
	for _, e := range sv.sims {
		e.Stop()
	}
}

// runChaos drives the simulated readers through pre-generated rounds
// and flaps the last reader mid-walk: stopped after the first walking
// round, restarted -chaos-flap later. While it is down the pipeline
// emits degraded fixes from the remaining live quorum.
func (sv *supervised) runChaos(ctx context.Context) error {
	rounds, err := sim.GenerateLLRPRounds(sv.sc, *rounds, 10)
	if err != nil {
		return err
	}
	// Wait for every session to finish its handshake before streaming.
	for _, e := range sv.sims {
		select {
		case <-e.WaitStreaming():
		case <-ctx.Done():
			return nil
		case <-time.After(10 * time.Second):
			return fmt.Errorf("reader %s: no session after 10s", e.ID)
		}
	}
	victim := sv.sims[len(sv.sims)-1]
	const interval = 200 * time.Millisecond
	for i, rd := range rounds {
		if i == 3 && len(sv.sims) > 2 { // first walking round delivered; kill one reader
			logger.Info("chaos: killing reader", "reader", victim.ID, "for", chaosFlap.String())
			victim.Stop()
			time.AfterFunc(*chaosFlap, func() {
				if ctx.Err() != nil {
					return
				}
				if _, err := victim.Start(victim.Addr()); err != nil {
					logger.Error("chaos: restart failed", "reader", victim.ID, "error", err)
					return
				}
				logger.Info("chaos: reader restarted", "reader", victim.ID)
			})
		}
		for _, e := range sv.sims {
			// A dead or reconnecting reader just misses the round.
			_ = e.Broadcast(rd.Payloads[e.ID])
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(interval):
		}
	}
	// Let the sessions deliver the last round before the run ends.
	time.Sleep(300 * time.Millisecond)
	return nil
}

// readerStatuses adapts supervisor status snapshots to the /readyz
// reader-state shape.
func (sv *supervised) readerStatuses() []serve.ReaderStatus {
	sts := sv.sup.Status()
	out := make([]serve.ReaderStatus, len(sts))
	for i, st := range sts {
		out[i] = serve.ReaderStatus{
			ID: st.ID, Addr: st.Addr, State: st.State.String(),
			Since: st.Since, Reconnects: st.Reconnects, LastError: st.LastError,
		}
	}
	return out
}

// parseDial turns "env/reader-1=host:port,env/reader-2=host:port" into
// session endpoints.
func parseDial(s string) ([]session.Endpoint, error) {
	var eps []session.Endpoint
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad -dial entry %q (want id=addr)", part)
		}
		eps = append(eps, session.Endpoint{ID: id, Addr: addr})
	}
	return eps, nil // session.New rejects an empty list
}
