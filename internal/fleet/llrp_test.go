package fleet

import (
	"context"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"

	"dwatch/internal/dwatch"
	"dwatch/internal/llrp"
	"dwatch/internal/pipeline"
	"dwatch/internal/rf"
	"dwatch/internal/serve"
	"dwatch/internal/sim"
)

// serveLLRP runs the fleet's handler behind a real llrp.Server on a
// loopback port and returns its address plus a shutdown func.
func serveLLRP(t *testing.T, f *Fleet) (string, func()) {
	t.Helper()
	srv := &llrp.Server{Handler: f.Handler()}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	return addr.String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("llrp shutdown: %v", err)
		}
		if err := <-done; err != llrp.ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	}
}

func dialLLRP(t *testing.T, addr string) *llrp.Conn {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := llrp.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	c.SetTimeout(5 * time.Second)
	return c
}

// requalify rewrites a report payload's reader ID.
func requalify(t *testing.T, payload []byte, readerID string) []byte {
	t.Helper()
	rep, err := llrp.UnmarshalROAccessReport(payload)
	if err != nil {
		t.Fatal(err)
	}
	rep.ReaderID = readerID
	out, err := rep.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// bareFixes runs rounds with their unqualified reader IDs through a
// bare pipeline — the reference a fleet environment must reproduce.
func bareFixes(t *testing.T, sc *sim.Scenario, rounds []sim.LLRPRound) map[uint32]pipeline.Fix {
	t.Helper()
	arrays := map[string]*rf.Array{}
	for _, r := range sc.Readers {
		arrays[r.ID] = r.Array
	}
	p, err := pipeline.New(pipeline.Deployment{Arrays: arrays, Grid: sc.Grid})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	out := map[uint32]pipeline.Fix{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for fix := range p.Fixes() {
			if fix.Err == nil {
				out[fix.Seq] = fix
			}
		}
	}()
	for _, round := range rounds {
		for _, payload := range payloadsInOrder(round) {
			rep, err := llrp.UnmarshalROAccessReport(payload)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Ingest(rep); err != nil {
				t.Fatal(err)
			}
		}
	}
	p.Drain()
	<-done
	return out
}

// TestHandlerRoutesByReaderID serves two environments behind one LLRP
// listener over real TCP: capabilities get a StartROSpec only for a
// deployed reader, reports route by their "<env>/" prefix, reports no
// environment deploys are refused without touching either env, and
// each env fuses the same fixes, bit for bit, as a bare pipeline fed
// the bare reader IDs.
func TestHandlerRoutesByReaderID(t *testing.T) {
	hub := serve.NewHub()
	f := New(WithHub(hub), WithWALRoot(t.TempDir()))
	defer f.Close()
	envs := []string{"room-a", "room-b"}
	want := map[string]map[uint32]pipeline.Fix{}
	rounds := map[string][]sim.LLRPRound{}
	for i, id := range envs {
		cfg := tableCfg(int64(i + 1))
		if _, err := f.Add(id, cfg); err != nil {
			t.Fatal(err)
		}
		sc, err := sim.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rounds[id], err = sim.GenerateLLRPRounds(sc, 3, 4); err != nil {
			t.Fatal(err)
		}
		want[id] = bareFixes(t, sc, rounds[id])
		if len(want[id]) == 0 {
			t.Fatalf("%s: reference run fused no fixes", id)
		}
	}
	watchers := map[string]*serve.Watcher{}
	for _, id := range envs {
		watchers[id] = hub.Watch(id)
		defer watchers[id].Close()
	}

	addr, shutdown := serveLLRP(t, f)
	defer shutdown()
	conn := dialLLRP(t, addr)
	defer conn.Close()

	// The handler serves one connection's messages in order, so a
	// keepalive ack arriving first proves the unknown readers got no
	// StartROSpec.
	for _, id := range []string{"ghost/reader-1", "room-a/reader-9", "reader-1"} {
		caps := llrp.ReaderCapabilities{ReaderID: id, Antennas: 8}
		if _, err := conn.Send(llrp.MsgGetReaderCapabilitiesResponse, caps.Marshal()); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.SendKeepalive(); err != nil {
		t.Fatalf("keepalive after unknown capabilities: %v", err)
	}
	for _, id := range envs {
		for _, r := range mustEnv(t, f, id).Scenario().Readers {
			caps := llrp.ReaderCapabilities{ReaderID: r.ID, Antennas: uint16(r.Array.Elements)}
			if _, err := conn.Send(llrp.MsgGetReaderCapabilitiesResponse, caps.Marshal()); err != nil {
				t.Fatal(err)
			}
			msg, err := conn.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if msg.Type != llrp.MsgStartROSpec {
				t.Fatalf("capabilities of %s answered with type %d, want StartROSpec", r.ID, msg.Type)
			}
			if spec, err := llrp.UnmarshalROSpec(msg.Payload); err != nil || spec.SnapshotsPerTag != 10 {
				t.Fatalf("StartROSpec for %s = %+v, %v", r.ID, spec, err)
			}
		}
	}

	// Interleave the two environments' rounds with reports that belong
	// to neither.
	sent := map[string]uint64{}
	refused := [][]byte{}
	for _, stray := range []string{"ghost/reader-1", "room-a/reader-9", "reader-1"} {
		refused = append(refused, requalify(t, payloadsInOrder(rounds["room-a"][0])[0], stray))
	}
	for k := range rounds["room-a"] {
		for _, id := range envs {
			for _, payload := range payloadsInOrder(rounds[id][k]) {
				rep, err := llrp.UnmarshalROAccessReport(payload)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := conn.Send(llrp.MsgROAccessReport, requalify(t, payload, id+"/"+rep.ReaderID)); err != nil {
					t.Fatal(err)
				}
				sent[id]++
			}
		}
		if k < len(refused) {
			if _, err := conn.Send(llrp.MsgROAccessReport, refused[k]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := conn.SendKeepalive(); err != nil { // every report handled
		t.Fatal(err)
	}

	for _, id := range envs {
		e := mustEnv(t, f, id)
		if got := e.Pipeline().Stats().ReportsIn; got != sent[id] {
			t.Fatalf("%s ingested %d reports, want %d (refused reports leaked in)", id, got, sent[id])
		}
		if got := e.wal.Status().Appended; got != sent[id] {
			t.Fatalf("%s WAL appended %d records, want %d", id, got, sent[id])
		}
		got := map[uint32]serve.Position{}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		for len(got) < len(want[id]) {
			frames, err := watchers[id].Next(ctx)
			if err != nil {
				cancel()
				t.Fatalf("%s: %d of %d fixes arrived: %v", id, len(got), len(want[id]), err)
			}
			for _, data := range frames {
				var p serve.Position
				if err := json.Unmarshal(data, &p); err != nil {
					t.Fatal(err)
				}
				got[p.Seq] = p
			}
		}
		cancel()
		for seq, w := range want[id] {
			g, ok := got[seq]
			if !ok {
				t.Fatalf("%s: no fix for seq %d", id, seq)
			}
			if g.X != w.Pos.X || g.Y != w.Pos.Y || g.Confidence != w.Confidence || g.Views != w.Views {
				t.Fatalf("%s seq %d: fleet fix (%v, %v) conf %v views %d, bare (%v, %v) conf %v views %d",
					id, seq, g.X, g.Y, g.Confidence, g.Views, w.Pos.X, w.Pos.Y, w.Confidence, w.Views)
			}
			if len(g.Readers) != len(w.Readers) {
				t.Fatalf("%s seq %d: readers %v, want %v prefixed", id, seq, g.Readers, w.Readers)
			}
			for i, r := range g.Readers {
				if r != id+"/"+w.Readers[i] {
					t.Fatalf("%s seq %d: readers %v, want %v prefixed", id, seq, g.Readers, w.Readers)
				}
			}
		}
	}
}

func mustEnv(t *testing.T, f *Fleet, id string) *Env {
	t.Helper()
	e, ok := f.Env(id)
	if !ok {
		t.Fatalf("env %q not registered", id)
	}
	return e
}

// TestRestoredEnvReady: an environment started from a saved baseline
// confirms no baseline rounds, so it must read Ready before any report
// arrives; a fresh neighbor still gates readiness.
func TestRestoredEnvReady(t *testing.T) {
	f := New()
	defer f.Close()
	dep, _, err := Deployment("room-a", tableCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	restored := dwatch.NewFuser(dep.Arrays, dwatch.Config{})
	if _, err := f.Add("room-a", tableCfg(1), pipeline.WithRestored(restored)); err != nil {
		t.Fatal(err)
	}
	if err := f.Ready(); err != nil {
		t.Fatalf("Ready with a restored env = %v", err)
	}
	if _, err := f.Add("room-b", tableCfg(2)); err != nil {
		t.Fatal(err)
	}
	if err := f.Ready(); err == nil || !strings.Contains(err.Error(), "room-b") {
		t.Fatalf("Ready with a fresh env = %v, want room-b's baselines pending", err)
	}
}

// TestShutdownSettlesGoroutines: with reader connections still open,
// llrp.Server.Shutdown and Fleet.Close leave no goroutine behind.
func TestShutdownSettlesGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	f := New(WithWALRoot(t.TempDir()))
	if _, err := f.Add("room-a", tableCfg(1)); err != nil {
		t.Fatal(err)
	}
	sc := mustEnv(t, f, "room-a").Scenario()
	rounds, err := sim.GenerateLLRPRounds(sc, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	addr, shutdown := serveLLRP(t, f)
	var conns []*llrp.Conn
	for _, r := range sc.Readers {
		c := dialLLRP(t, addr)
		defer c.Close()
		conns = append(conns, c)
		for _, round := range rounds {
			if _, err := c.Send(llrp.MsgROAccessReport, round.Payloads[r.ID]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range conns {
		if err := c.SendKeepalive(); err != nil { // reports handled, connection live
			t.Fatal(err)
		}
	}
	shutdown()
	f.Close()
	settle(t, baseline)
}

// settle polls until the goroutine count is back to baseline, dumping
// every stack if it never gets there.
func settle(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("%d goroutines, want %d:\n%s", runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
