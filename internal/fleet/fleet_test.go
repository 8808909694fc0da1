package fleet

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"dwatch/internal/obs"
	"dwatch/internal/pipeline"
	"dwatch/internal/serve"
	"dwatch/internal/sim"
	"dwatch/internal/wal"
)

// tableCfg is the cheap two-reader scenario every pipeline test uses,
// reseeded per environment so fleets don't share tag layouts.
func tableCfg(seed int64) sim.Config {
	cfg := sim.TableConfig()
	cfg.Seed = seed
	return cfg
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestValidateID(t *testing.T) {
	for _, id := range []string{"room-a", "warehouse_3", "Lab.2"} {
		if err := validateID(id); err != nil {
			t.Errorf("validateID(%q) = %v, want nil", id, err)
		}
	}
	for _, id := range []string{"", "stats", "envs", "positions", "traces", "health", "wal", "a/b", "a b", "ümlaut"} {
		if err := validateID(id); err == nil {
			t.Errorf("validateID(%q) = nil, want error", id)
		}
	}
}

// TestFleetAddRemove covers the basic lifecycle: registration state,
// reader-ID prefixing, serve adapters, metrics, and graceful removal
// including the hub forgetting the env's latest fix.
func TestFleetAddRemove(t *testing.T) {
	reg := obs.NewRegistry()
	hub := serve.NewHub()
	f := New(WithObs(reg), WithHub(hub))
	defer f.Close()

	e, err := f.Add("room-a", tableCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range e.Scenario().Readers {
		if !strings.HasPrefix(r.ID, "room-a/") {
			t.Fatalf("reader ID %q lacks env prefix", r.ID)
		}
	}
	if got, ok := f.Env("room-a"); !ok || got != e {
		t.Fatal("Env lookup after Add failed")
	}
	if ids := f.IDs(); len(ids) != 1 || ids[0] != "room-a" {
		t.Fatalf("IDs = %v", ids)
	}

	infos := f.Infos()
	if len(infos) != 1 || infos[0].ID != "room-a" || infos[0].Readers != 2 {
		t.Fatalf("Infos = %+v", infos)
	}
	if infos[0].Slot != NewRing(16).Slot("room-a") {
		t.Fatalf("Slot = %d, want ring placement", infos[0].Slot)
	}
	h, ok := f.EnvHandle("room-a")
	if !ok || h.Stats == nil || h.Tracer == nil || h.Health == nil {
		t.Fatalf("EnvHandle = %+v %v", h, ok)
	}
	if _, ok := f.EnvHandle("ghost"); ok {
		t.Fatal("EnvHandle(ghost) = ok")
	}
	if v := reg.Snapshot()["dwatch_fleet_environments"]; v != 1 {
		t.Fatalf("dwatch_fleet_environments = %v, want 1", v)
	}

	// Duplicate IDs are rejected without disturbing the original.
	if _, err := f.Add("room-a", tableCfg(2)); err == nil {
		t.Fatal("duplicate Add succeeded")
	}
	if f.Len() != 1 {
		t.Fatalf("Len after duplicate Add = %d", f.Len())
	}

	hub.Publish(serve.Position{Env: "room-a", Seq: 1})
	if err := f.Remove("room-a"); err != nil {
		t.Fatal(err)
	}
	if _, ok := hub.LatestForEnv("room-a"); ok {
		t.Fatal("hub still retains removed env's fix")
	}
	if v := reg.Snapshot()["dwatch_fleet_environments"]; v != 0 {
		t.Fatalf("dwatch_fleet_environments after Remove = %v, want 0", v)
	}
	if err := f.Remove("room-a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second Remove = %v, want ErrNotFound", err)
	}
}

// TestFleetSimulate drives one environment end to end: generated LLRP
// rounds through WAL append + pipeline ingest to fixes on the hub.
func TestFleetSimulate(t *testing.T) {
	reg := obs.NewRegistry()
	hub := serve.NewHub()
	f := New(WithObs(reg), WithHub(hub), WithWALRoot(t.TempDir()))
	defer f.Close()

	if _, err := f.Add("room-a", tableCfg(1)); err != nil {
		t.Fatal(err)
	}
	if err := f.Simulate(context.Background(), "room-a", 2, 4, 0); err != nil {
		t.Fatal(err)
	}
	// Ingest is asynchronous past the queue: poll for a fused fix to
	// land on the hub (published after every counter update).
	waitFor(t, "hub fix", func() bool { _, ok := hub.LatestForEnv("room-a"); return ok })
	e, _ := f.Env("room-a")
	if e.Fixes() == 0 {
		t.Fatal("no fixes after Simulate")
	}
	p, ok := hub.LatestForEnv("room-a")
	if !ok || p.Env != "room-a" {
		t.Fatalf("hub latest = %+v %v", p, ok)
	}
	info := f.Infos()[0]
	if info.Reports == 0 || info.Fixes == 0 {
		t.Fatalf("info counters = %+v", info)
	}
	snap := reg.Snapshot()
	if snap[`dwatch_fleet_fixes_total{env="room-a"}`] == 0 {
		t.Fatalf("per-env fixes counter missing: %v", snap)
	}
	if snap[`dwatch_fleet_reports_total{env="room-a"}`] == 0 {
		t.Fatalf("per-env reports counter missing")
	}
	if err := f.Ready(); err != nil {
		t.Fatalf("Ready after baselines = %v", err)
	}
}

// TestFleetWALReplayOnReadd: a re-added environment replays its WAL
// subdirectory through the fresh pipeline, rebuilding the counters the
// previous incarnation had.
func TestFleetWALReplayOnReadd(t *testing.T) {
	root := t.TempDir()
	f := New(WithWALRoot(root))
	defer f.Close()

	if _, err := f.Add("room-a", tableCfg(1)); err != nil {
		t.Fatal(err)
	}
	if err := f.Simulate(context.Background(), "room-a", 1, 4, 0); err != nil {
		t.Fatal(err)
	}
	e, _ := f.Env("room-a")
	ingested := e.Pipeline().Stats().ReportsIn
	if ingested == 0 {
		t.Fatal("no reports ingested")
	}
	if err := f.Remove("room-a"); err != nil {
		t.Fatal(err)
	}

	e2, err := f.Reload("room-a", tableCfg(1))
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("Reload of removed env = %v, want ErrNotFound", err)
	}
	e2, err = f.Add("room-a", tableCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := e2.Pipeline().Stats().ReportsIn; got != ingested {
		t.Fatalf("replayed ReportsIn = %d, want %d", got, ingested)
	}
}

// TestFleetAddRefusesMidLogDamage: a WAL damaged before its final
// segment fails Add even though recovery has replayed the records
// before the damage into the started pipeline. The environment is torn
// down: nothing is registered, its metric series are gone with it, and
// no goroutine outlives the failed Add.
func TestFleetAddRefusesMidLogDamage(t *testing.T) {
	baseline := runtime.NumGoroutine()
	root := t.TempDir()
	f := New(WithWALRoot(root, wal.WithFsync(wal.FsyncNever), wal.WithSegmentMaxBytes(4<<10)))
	defer f.Close()
	if _, err := f.Add("room-a", tableCfg(1)); err != nil {
		t.Fatal(err)
	}
	if err := f.Simulate(context.Background(), "room-a", 2, 4, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Remove("room-a"); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "room-a")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) < 3 {
		t.Fatalf("WAL has %d segments, want at least 3", len(ents))
	}
	// Flip a byte mid-way through the second segment, inside a record.
	seg := filepath.Join(dir, ents[1].Name())
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := f.Add("room-a", tableCfg(1)); err == nil || !strings.Contains(err.Error(), "damaged mid-log") {
		t.Fatalf("Add on a WAL damaged mid-log = %v, want the damage refused", err)
	}
	if _, ok := f.Env("room-a"); ok || f.Len() != 0 {
		t.Fatalf("failed Add registered an environment (%d registered)", f.Len())
	}
	settle(t, baseline)
}

// TestFleetLoadDir boots environments from a directory of JSON
// deployment configs, ignoring non-config files.
func TestFleetLoadDir(t *testing.T) {
	dir := t.TempDir()
	cfgJSON := `{"name":"cfg","width":8,"depth":8,"readers":2,"antennas":8,"tags":4,"seed":%d}`
	writeCfg := func(name, body string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeCfg("site-b.json", strings.Replace(cfgJSON, "%d", "2", 1))
	writeCfg("site-a.json", strings.Replace(cfgJSON, "%d", "1", 1))
	writeCfg("README.txt", "not a config")

	f := New()
	defer f.Close()
	ids, err := f.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != "site-a" || ids[1] != "site-b" {
		t.Fatalf("LoadDir ids = %v", ids)
	}
	for _, id := range ids {
		if _, ok := f.Env(id); !ok {
			t.Fatalf("env %q not registered", id)
		}
	}

	empty := t.TempDir()
	if _, err := New().LoadDir(empty); err == nil {
		t.Fatal("LoadDir on empty dir succeeded")
	}
}

// TestFleetClosed: lifecycle calls after Close fail cleanly.
func TestFleetClosed(t *testing.T) {
	f := New()
	f.Close()
	if _, err := f.Add("x", tableCfg(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Add after Close = %v, want ErrClosed", err)
	}
}

// TestRemoveDropsEnvMetricSeries: the remove→re-add→remove seam. Every
// per-env series (fixes, reports, queue depth, pending sequences) must
// vanish from /metrics when its environment is removed — a re-added
// environment starts fresh series instead of inheriting counts or
// stale gauge closures from the previous incarnation.
func TestRemoveDropsEnvMetricSeries(t *testing.T) {
	reg := obs.NewRegistry()
	hub := serve.NewHub()
	f := New(WithObs(reg), WithHub(hub))
	defer f.Close()

	s := serve.New(serve.WithRegistry(reg), serve.WithHub(hub))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	scrape := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	assertNoEnvSeries := func(metrics, env string) {
		t.Helper()
		needle := `env="` + env + `"`
		for _, line := range strings.Split(metrics, "\n") {
			if strings.Contains(line, needle) {
				t.Errorf("stale series survived removal: %s", line)
			}
		}
	}

	drive := func() {
		t.Helper()
		if _, err := f.Add("room-a", tableCfg(1)); err != nil {
			t.Fatal(err)
		}
		if err := f.Simulate(context.Background(), "room-a", 1, 4, 0); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "room-a fix", func() bool {
			e, ok := f.Env("room-a")
			return ok && e.Fixes() > 0
		})
	}

	drive()
	metrics := scrape()
	for _, want := range []string{
		`dwatch_fleet_fixes_total{env="room-a"}`,
		`dwatch_fleet_reports_total{env="room-a"}`,
		`dwatch_fleet_queue_depth{env="room-a"}`,
		`dwatch_fleet_pending_sequences{env="room-a"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q while env registered", want)
		}
	}

	if err := f.Remove("room-a"); err != nil {
		t.Fatal(err)
	}
	assertNoEnvSeries(scrape(), "room-a")

	// Re-add: series come back, and come back from zero — the fresh
	// incarnation's counts must not include the first run's fixes.
	drive()
	snap := reg.Snapshot()
	e, _ := f.Env("room-a")
	if got := snap[`dwatch_fleet_fixes_total{env="room-a"}`]; got != float64(e.Fixes()) {
		t.Errorf("re-added fixes series = %v, want %d (fresh count)", got, e.Fixes())
	}

	if err := f.Remove("room-a"); err != nil {
		t.Fatal(err)
	}
	assertNoEnvSeries(scrape(), "room-a")
}

// TestHandoffReleasesRemovedEnv: Remove/Add cycles of one WAL-backed
// environment — a node handing it off and adopting it back — leave the
// process-wide gauges reading only the live incarnation, and the
// removed incarnations' pipelines become garbage.
func TestHandoffReleasesRemovedEnv(t *testing.T) {
	reg := obs.NewRegistry()
	// The first incarnation's pipeline holds a logger nothing else
	// references; its finalizer can run only once that pipeline is
	// unreachable. (A finalizer on the pipeline itself would never run:
	// the pipeline sits in reference cycles with its own assembler.)
	collected := make(chan struct{})
	incarnations := 0
	f := New(WithObs(reg), WithWALRoot(t.TempDir()),
		WithPipelineOptions(func(string) []pipeline.Option {
			incarnations++
			l := slog.New(slog.NewTextHandler(io.Discard, nil))
			if incarnations == 1 {
				runtime.SetFinalizer(l, func(*slog.Logger) { close(collected) })
			}
			return []pipeline.Option{pipeline.WithLogger(l)}
		}))
	defer f.Close()

	if _, err := f.Add("room-a", tableCfg(1)); err != nil {
		t.Fatal(err)
	}
	if err := f.Simulate(context.Background(), "room-a", 1, 4, 0); err != nil {
		t.Fatal(err)
	}
	const handoffs = 5
	for i := 0; i < handoffs; i++ {
		if err := f.Remove("room-a"); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Add("room-a", tableCfg(1)); err != nil {
			t.Fatal(err)
		}
	}

	// Add returns once the WAL is queued into the pipeline; the replay
	// is done when its one online sequence has assembled, every report
	// applied and every (reader, tag) pair tracked again.
	live, _ := f.Env("room-a")
	waitFor(t, "replayed sequence", func() bool {
		st := live.Pipeline().Stats()
		return st.SequencesAssembled == 1 && st.QueueDepth == 0
	})
	var tags int
	for _, rh := range live.health.Snapshot().Readers {
		tags += len(rh.Tags)
	}
	if pairs := len(live.Scenario().Readers) * live.Scenario().Cfg.Tags; tags != pairs {
		t.Fatalf("live env tracks %d (reader, tag) pairs, want %d", tags, pairs)
	}
	ws := live.wal.Status()
	st := live.Pipeline().Stats()
	snap := reg.Snapshot()
	for id, want := range map[string]float64{
		"dwatch_wal_segments":               float64(ws.Segments),
		"dwatch_wal_bytes":                  float64(ws.Bytes),
		"dwatch_rf_tags_tracked":            float64(tags),
		"dwatch_pipeline_queue_depth":       float64(st.QueueDepth),
		"dwatch_pipeline_pending_sequences": float64(st.PendingSequences),
	} {
		if got := snap[id]; got != want {
			t.Errorf("%s = %v after %d handoffs, want the live env's %v", id, got, handoffs, want)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("the first incarnation's pipeline is still reachable after Remove")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
