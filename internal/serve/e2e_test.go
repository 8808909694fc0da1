package serve

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dwatch/internal/api"
	"dwatch/internal/api/adapt"
	"dwatch/internal/calib"
	"dwatch/internal/channel"
	"dwatch/internal/geom"
	"dwatch/internal/health"
	"dwatch/internal/llrp"
	"dwatch/internal/obs"
	"dwatch/internal/pipeline"
	"dwatch/internal/reader"
	"dwatch/internal/rf"
	"dwatch/internal/sim"
	"dwatch/internal/tracing"
)

// genReports mirrors the pipeline package's simulated session: two
// baseline rounds, then online rounds with a walking target.
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

// TestServePlaneEndToEnd wires the full observability plane the way
// the fleet does — registry into the pipeline, fix subscription into
// the hub, one env handle, readiness off baseline confirmations — then
// drives a simulated session through the pipeline and asserts, over
// real HTTP: readyz flips 503→200 at baseline confirmation, the SSE
// stream delivers fixes as they fuse, /metrics exposes the pipeline
// families, and the env's stats route serves the live snapshot.
func TestServePlaneEndToEnd(t *testing.T) {
	sc, err := sim.Build(sim.TableConfig())
	if err != nil {
		t.Fatal(err)
	}
	reports := genReports(t, sc, 3, 6)
	arrays := map[string]*rf.Array{}
	for _, r := range sc.Readers {
		arrays[r.ID] = r.Array
	}

	reg := obs.NewRegistry()
	hub := NewHub(WithHubObs(reg))
	tracer := tracing.New()
	mon := health.New(reg, health.Options{})
	p, err := pipeline.New(pipeline.Deployment{Arrays: arrays, Grid: sc.Grid},
		pipeline.WithWorkers(2), pipeline.WithObs(reg),
		pipeline.WithTracer(tracer), pipeline.WithHealth(mon))
	if err != nil {
		t.Fatal(err)
	}
	p.SubscribeFixes(func(f pipeline.Fix) {
		if f.Err != nil {
			return
		}
		hub.Publish(Position{
			Env: sc.Name, Seq: f.Seq, X: f.Pos.X, Y: f.Pos.Y,
			Confidence: f.Confidence, Views: f.Views, TraceID: f.TraceID, Time: time.Now(),
		})
	})
	env := EnvHandle{
		Info:   EnvInfo{ID: sc.Name, Readers: len(arrays)},
		Stats:  func() api.PipelineStats { return adapt.PipelineStats(p.Stats()) },
		Tracer: tracer,
		Health: mon,
	}
	srv := New(
		WithRegistry(reg),
		WithHub(hub),
		WithEnvs(func() []EnvInfo { return []EnvInfo{env.Info} }),
		WithEnvLookup(func(id string) (EnvHandle, bool) { return env, id == sc.Name }),
		WithReady(func() error {
			if st := p.Stats(); st.BaselinesConfirmed < uint64(len(arrays)) {
				return fmt.Errorf("baseline: %d/%d readers confirmed", st.BaselinesConfirmed, len(arrays))
			}
			return nil
		}),
	)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Before any traffic: alive but not ready.
	if code := getCode(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if code := getCode(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before baseline = %d, want 503", code)
	}

	// Open the SSE stream before the walk starts.
	req, _ := http.NewRequest("GET", ts.URL+"/api/v1/positions?stream=1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)

	p.Start()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range p.Fixes() {
		}
	}()
	for _, rep := range reports {
		if err := p.Ingest(rep); err != nil {
			t.Fatal(err)
		}
	}

	// At least one fix must arrive over SSE while the walk streams.
	fixes := readSSE(t, rd, 1, 10*time.Second)
	if fixes[0].Env != sc.Name || fixes[0].Views < 2 {
		t.Fatalf("SSE fix = %+v", fixes[0])
	}
	if fixes[0].Schema != PositionSchema || fixes[0].TraceID == "" {
		t.Fatalf("SSE fix schema/trace = %d/%q, want %d/non-empty", fixes[0].Schema, fixes[0].TraceID, PositionSchema)
	}

	p.Drain()
	<-done

	// The streamed fix's trace ID resolves through the typed client to
	// a full trace with spans from every pipeline stage.
	client := api.NewClient(ts.URL)
	client.Strict = true
	td, err := client.Trace(context.Background(), sc.Name, fixes[0].TraceID)
	if err != nil {
		t.Fatal(err)
	}
	if td.Outcome != tracing.OutcomeFix || len(td.Spans) < 4 {
		t.Fatalf("resolved trace: outcome %q, %d spans", td.Outcome, len(td.Spans))
	}
	stages := map[string]bool{}
	for _, sp := range td.Spans {
		stages[sp.Stage] = true
	}
	for _, st := range []string{tracing.StageIngest, tracing.StageSpectrum, tracing.StageAssemble, tracing.StageFuse} {
		if !stages[st] {
			t.Fatalf("resolved trace lacks %s span: %v", st, stages)
		}
	}

	// The RF-health endpoint reports both readers with live read rates,
	// strict-decoded against the contract type.
	hs, err := client.Health(context.Background(), sc.Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(hs.Readers) != len(arrays) {
		t.Fatalf("health readers = %d, want %d", len(hs.Readers), len(arrays))
	}
	for _, rh := range hs.Readers {
		if len(rh.Tags) == 0 || rh.Tags[0].Reads == 0 {
			t.Fatalf("reader %s health = %+v", rh.ID, rh)
		}
	}

	// Baselines confirmed: ready now.
	if code := getCode(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after baseline = %d, want 200", code)
	}

	// The exposition carries every pipeline family with live values.
	body := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		"# TYPE dwatch_pipeline_reports_total counter",
		"# TYPE dwatch_pipeline_spectra_total counter",
		"# TYPE dwatch_pipeline_fixes_total counter",
		"# TYPE dwatch_pipeline_queue_depth gauge",
		"# TYPE dwatch_pipeline_pending_sequences gauge",
		"# TYPE dwatch_stage_duration_seconds histogram",
		`dwatch_stage_duration_seconds_bucket{stage="fuse",le="+Inf"}`,
		`dwatch_pipeline_fixes_total{result="fix"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Live stats agree with the pipeline through the typed client.
	stats, err := client.EnvStats(context.Background(), sc.Name)
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if stats.ReportsIn == 0 || stats.ReportsIn != st.ReportsIn {
		t.Fatalf("client stats ReportsIn = %d, pipeline %d", stats.ReportsIn, st.ReportsIn)
	}
	if st.Fixes == 0 {
		t.Fatal("pipeline produced no fixes")
	}
}

func getCode(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
