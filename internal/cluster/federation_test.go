package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dwatch/internal/api"
	"dwatch/internal/obs"
	"dwatch/internal/sim"
)

// fedPage pulls the gateway's federated exposition as text.
func fedPage(t *testing.T, gatewayURL string) string {
	t.Helper()
	page, err := api.NewClient(gatewayURL).Metrics(context.Background())
	if err != nil {
		t.Fatalf("federated metrics: %v", err)
	}
	return string(page)
}

// envRow finds one environment's row in a cluster-health rollup.
func envRow(t *testing.T, ch api.ClusterHealth, env string) api.EnvClusterHealth {
	t.Helper()
	for _, e := range ch.Envs {
		if e.Env == env {
			return e
		}
	}
	t.Fatalf("env %q missing from rollup %+v", env, ch)
	return api.EnvClusterHealth{}
}

// TestFederationEndToEnd is the observability plane's acceptance test:
// a gateway federating two in-process nodes. The federated /metrics
// page carries both nodes' families under distinct node labels, an env
// handoff moves the per-env series to the new owner without
// duplicating or resurrecting the old owner's, and the cluster-health
// rollup worst-ofs a burning env on one node while the other stays
// healthy.
func TestFederationEndToEnd(t *testing.T) {
	const env = "hall"
	ctx := context.Background()
	loser, winner := handoffPair(env)

	// Hand-stepped protocol: heartbeat TTL must not fire between syncs.
	dir := NewDirectory(WithHeartbeat(time.Hour))
	greg := obs.NewRegistry()
	obs.RegisterBuildInfo(greg)
	gw := NewGateway(dir, WithRetry(10, 20*time.Millisecond), WithGatewayObs(greg))
	gts := httptest.NewServer(gw.Handler())
	t.Cleanup(gts.Close)
	client := api.NewClient(gts.URL)
	client.Strict = true

	// aux-l runs an impossible SLO (sub-microsecond target, 0.5
	// objective) so every fix breaches: fast burn = 1/(1-0.5) = 2,
	// squarely in the degraded band. The contested env and aux-w carry
	// no SLO and must stay ok.
	cfg := tableCfg(7)
	burning := tableCfg(8)
	burning.SLO = &sim.SLOConfig{TargetMS: 1e-6, Objective: 0.5}
	walRoot := t.TempDir()
	nodeL := newTestNode(t, loser, gts.URL, walRoot,
		map[string]sim.Config{env: cfg, "aux-l": burning})
	nodeW := newTestNode(t, winner, gts.URL, walRoot,
		map[string]sim.Config{env: cfg, "aux-w": tableCfg(9)})

	// ---- Phase 1: the loser alone owns hall and aux-l. ----
	if err := nodeL.agent.Join(ctx); err != nil {
		t.Fatal(err)
	}
	if err := nodeL.agent.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "loser adoption", func() bool { return len(nodeL.fleet.IDs()) == 2 })
	// Online rounds keep one full spectrum per reader for the RF-health
	// monitor, round-robin over the reader's baseline tags, so hall is
	// driven through at least one health cycle of the table preset's
	// tags before its drift is asserted.
	const rounds = 30
	for _, id := range []string{env, "aux-l"} {
		if err := nodeL.fleet.Simulate(ctx, id, rounds, 4, 0); err != nil {
			t.Fatal(err)
		}
		waitFor(t, id+" fusions", func() bool {
			e, ok := nodeL.fleet.Env(id)
			if !ok {
				return false
			}
			st := e.Pipeline().Stats()
			return st.Fixes+st.Misses == rounds
		})
		if _, ok := nodeL.hub.LatestForEnv(id); !ok {
			t.Fatalf("%s: no fix published", id)
		}
	}

	gw.ScrapeOnce(ctx)
	page := fedPage(t, gts.URL)
	if !strings.Contains(page, `dwatch_federation_nodes{node="gateway"} 1`) {
		t.Fatalf("gateway's own series missing or wrong:\n%s", page)
	}
	if !strings.Contains(page, fmt.Sprintf(`dwatch_fleet_fixes_total{env=%q,node=%q}`, env, loser)) {
		t.Fatalf("loser's hall fixes series missing:\n%s", page)
	}
	if !strings.Contains(page, fmt.Sprintf(`dwatch_slo_burn_rate{env="aux-l",window="fast",node=%q}`, loser)) {
		t.Fatalf("aux-l SLO burn series missing:\n%s", page)
	}

	ch, err := client.ClusterHealth(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Status != api.HealthDegraded || ch.Nodes != 1 || ch.ScrapedNodes != 1 {
		t.Fatalf("phase-1 rollup = %+v, want degraded 1/1", ch)
	}
	// The walking target IS a drifting multipath (that is the paper's
	// premise), so hall's readers report drift: the rollup must carry
	// it through as a degraded env on the owner.
	row := envRow(t, ch, env)
	if row.Status != api.HealthDegraded || row.Node != loser || row.DriftingReaders == 0 {
		t.Fatalf("hall row = %+v, want degraded on %s with drifting readers", row, loser)
	}
	aux := envRow(t, ch, "aux-l")
	if aux.Status != api.HealthDegraded || aux.SLOFastBurn <= 1 || len(aux.Reasons) == 0 {
		t.Fatalf("aux-l row = %+v, want degraded with burn > 1", aux)
	}
	if aux.Fixes == 0 {
		t.Fatalf("aux-l fixes did not federate from the owner's stats: %+v", aux)
	}

	// ---- Phase 2: the winner joins; hall is mid-handoff. ----
	if err := nodeW.agent.Join(ctx); err != nil {
		t.Fatal(err)
	}
	if err := nodeW.agent.Sync(ctx); err != nil { // adopts aux-w, hall withheld
		t.Fatal(err)
	}
	gw.ScrapeOnce(ctx)
	page = fedPage(t, gts.URL)
	for _, want := range []string{
		fmt.Sprintf(`dwatch_fleet_fixes_total{env=%q,node=%q}`, env, loser),
		fmt.Sprintf(`dwatch_fleet_fixes_total{env="aux-w",node=%q}`, winner),
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("federated page missing %s:\n%s", want, page)
		}
	}
	// One merged family: a single TYPE header despite samples from two
	// nodes and the gateway's parser re-emitting both pages.
	if n := strings.Count(page, "# TYPE dwatch_fleet_fixes_total counter"); n != 1 {
		t.Fatalf("dwatch_fleet_fixes_total TYPE header appears %d times, want 1", n)
	}
	ch, err = client.ClusterHealth(ctx)
	if err != nil {
		t.Fatal(err)
	}
	row = envRow(t, ch, env)
	if !row.HandoffInProgress || row.Status != api.HealthDegraded {
		t.Fatalf("mid-handoff hall row = %+v, want handoff_in_progress degraded", row)
	}
	// The winner's idle env carries no traffic, no drift, no SLO: the
	// healthy-node contrast the worst-of rollup must preserve.
	if w := envRow(t, ch, "aux-w"); w.Status != api.HealthOK || w.Node != winner {
		t.Fatalf("aux-w row = %+v, want ok on %s", w, winner)
	}

	// ---- Phase 3: handoff completes; series must move, not multiply. ----
	if err := nodeL.agent.Sync(ctx); err != nil { // drains hall
		t.Fatal(err)
	}
	if err := nodeL.agent.Sync(ctx); err != nil { // reports release
		t.Fatal(err)
	}
	if err := nodeW.agent.Sync(ctx); err != nil { // adopts hall
		t.Fatal(err)
	}
	waitFor(t, "winner adoption", func() bool { return len(nodeW.fleet.IDs()) == 2 })
	if err := nodeW.agent.Sync(ctx); err != nil { // reports ownership
		t.Fatal(err)
	}
	if err := nodeW.fleet.Simulate(ctx, env, 1, 4, 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "hall fix on the winner", func() bool {
		_, ok := nodeW.hub.LatestForEnv(env)
		return ok
	})

	gw.ScrapeOnce(ctx)
	page = fedPage(t, gts.URL)
	if !strings.Contains(page, fmt.Sprintf(`dwatch_fleet_fixes_total{env=%q,node=%q}`, env, winner)) {
		t.Fatalf("hall fixes did not move to the winner:\n%s", page)
	}
	// The drained owner's per-env series were Vec.Remove'd on drain and
	// must not resurrect on its page after the handoff.
	if strings.Contains(page, fmt.Sprintf(`{env=%q,node=%q}`, env, loser)) {
		t.Fatalf("loser still exports hall series after the handoff:\n%s", page)
	}
	if !strings.Contains(page, fmt.Sprintf(`dwatch_fleet_fixes_total{env="aux-l",node=%q}`, loser)) {
		t.Fatalf("loser's surviving aux-l series vanished:\n%s", page)
	}

	ch, err = client.ClusterHealth(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Nodes != 2 || ch.ScrapedNodes != 2 {
		t.Fatalf("phase-3 rollup = %+v, want 2 nodes scraped", ch)
	}
	row = envRow(t, ch, env)
	if row.Node != winner || row.HandoffInProgress {
		t.Fatalf("post-handoff hall row = %+v, want settled on %s", row, winner)
	}
	if row.Fixes == 0 {
		t.Fatalf("post-handoff hall fixes = 0: %+v", row)
	}
	if w := envRow(t, ch, "aux-w"); w.Status != api.HealthOK {
		t.Fatalf("aux-w row = %+v, want still ok", w)
	}
	// aux-l still burns, so the fleet-wide worst-of stays degraded.
	if ch.Status != api.HealthDegraded {
		t.Fatalf("overall status = %s, want degraded while aux-l burns", ch.Status)
	}
}

// TestFederationStaleEviction: a node that stops answering mid-scrape
// is evicted from the federated page at the next scrape, and a node
// that leaves the directory vanishes at render time without waiting
// for one.
func TestFederationStaleEviction(t *testing.T) {
	ctx := context.Background()
	dir := NewDirectory(WithHeartbeat(time.Hour))
	gw := NewGateway(dir, WithGatewayObs(obs.NewRegistry()))
	gts := httptest.NewServer(gw.Handler())
	t.Cleanup(gts.Close)

	a := newTestNode(t, "node-a", gts.URL, "", map[string]sim.Config{"env-a": tableCfg(1)})
	b := newTestNode(t, "node-b", gts.URL, "", map[string]sim.Config{"env-b": tableCfg(2)})
	for _, n := range []*testNode{a, b} {
		if err := n.agent.Join(ctx); err != nil {
			t.Fatal(err)
		}
		if err := n.agent.Sync(ctx); err != nil {
			t.Fatal(err)
		}
	}
	gw.ScrapeOnce(ctx)
	page := fedPage(t, gts.URL)
	if !strings.Contains(page, `node="node-a"`) || !strings.Contains(page, `node="node-b"`) {
		t.Fatalf("both nodes expected on the federated page:\n%s", page)
	}

	// Directory leave: the cached scrape is filtered out at render
	// time, before any rescrape happens.
	if _, err := dir.Leave(api.LeaveRequest{ID: "node-b"}); err != nil {
		t.Fatal(err)
	}
	page = fedPage(t, gts.URL)
	if strings.Contains(page, `node="node-b"`) {
		t.Fatalf("left node still on the federated page:\n%s", page)
	}
	if !strings.Contains(page, `node="node-a"`) {
		t.Fatalf("surviving node vanished with the leaver:\n%s", page)
	}

	// Mid-scrape death: node-a's plane dies while its directory entry
	// is still live. The failed scrape drops its cache.
	a.ts.Close()
	gw.ScrapeOnce(ctx)
	page = fedPage(t, gts.URL)
	if strings.Contains(page, `node="node-a"`) {
		t.Fatalf("dead node survived a failed scrape:\n%s", page)
	}
	if !strings.Contains(page, `node="gateway"`) {
		t.Fatalf("gateway's own series must outlive every node:\n%s", page)
	}
}

// TestFederationEscapedLabels: a sample whose label values carry
// backslashes, quotes, and newlines round-trips through the gateway's
// parser byte-identically, with only the node label spliced in.
func TestFederationEscapedLabels(t *testing.T) {
	ctx := context.Background()
	const raw = `# HELP weird_paths Windows paths and quoted speech.
# TYPE weird_paths counter
weird_paths{dir="C:\\temp\\x",msg="say \"hi\"\nloudly"} 42
weird_paths{dir="plain"} 0.25
`
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", obs.ContentType)
		fmt.Fprint(w, raw)
	}))
	t.Cleanup(fake.Close)

	dir := NewDirectory(WithHeartbeat(time.Hour))
	gw := NewGateway(dir)
	gts := httptest.NewServer(gw.Handler())
	t.Cleanup(gts.Close)
	if _, err := dir.Join(api.JoinRequest{ID: "fake", Addr: fake.URL}); err != nil {
		t.Fatal(err)
	}
	gw.ScrapeOnce(ctx)

	page := fedPage(t, gts.URL)
	for _, want := range []string{
		`weird_paths{dir="C:\\temp\\x",msg="say \"hi\"\nloudly",node="fake"} 42`,
		`weird_paths{dir="plain",node="fake"} 0.25`,
		"# HELP weird_paths Windows paths and quoted speech.",
		"# TYPE weird_paths counter",
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("federated page missing %q:\n%s", want, page)
		}
	}
}
