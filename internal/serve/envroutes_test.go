package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dwatch/internal/api"
)

// fleetFixture builds a two-env serve plane the way internal/fleet
// wires it: one shared hub, per-env handles with their own stats
// hooks.
func fleetFixture(t *testing.T) (*Server, *Hub) {
	t.Helper()
	hub := NewHub()
	envs := map[string]EnvHandle{
		"room-a": {
			Info:  EnvInfo{ID: "room-a", Readers: 3},
			Stats: func() api.PipelineStats { return api.PipelineStats{ReportsIn: 101} },
		},
		"room-b": {
			Info:  EnvInfo{ID: "room-b", Readers: 4},
			Stats: func() api.PipelineStats { return api.PipelineStats{ReportsIn: 202} },
		},
	}
	srv := New(
		WithHub(hub),
		WithSSEKeepalive(50*time.Millisecond),
		WithEnvs(func() []EnvInfo {
			return []EnvInfo{envs["room-a"].Info, envs["room-b"].Info}
		}),
		WithEnvLookup(func(id string) (EnvHandle, bool) {
			h, ok := envs[id]
			return h, ok
		}),
	)
	return srv, hub
}

// TestEnvRoutesUnknownEnv pins the multi-tenant 404 contract: every
// env-scoped endpoint answers an unknown environment with the uniform
// error envelope and the env_not_found code.
func TestEnvRoutesUnknownEnv(t *testing.T) {
	srv, _ := fleetFixture(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, path := range []string{
		"/api/v1/ghost/positions",
		"/api/v1/ghost/stats",
		"/api/v1/ghost/health",
		"/api/v1/ghost/wal",
		"/api/v1/ghost/traces",
		"/api/v1/ghost/traces/some-id",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
		if e := decodeError(t, resp); e.Error.Code != "env_not_found" {
			t.Errorf("GET %s code = %q, want env_not_found", path, e.Error.Code)
		}
	}

	// Unknown endpoint under a known env: envelope too, not the mux
	// plain-text default.
	resp, err := http.Get(ts.URL + "/api/v1/room-a/bogus")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET bogus endpoint = %d, want 404", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Error.Code != "not_found" {
		t.Fatalf("bogus endpoint code = %q, want not_found", e.Error.Code)
	}
}

// TestEnvRoutesUnconfigured: without fleet hooks the env surface
// degrades to the envelope like every other absent hook.
func TestEnvRoutesUnconfigured(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, path := range []string{"/api/v1/envs", "/api/v1/x/positions"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
		if e := decodeError(t, resp); e.Error.Code != "envs_unavailable" {
			t.Errorf("GET %s code = %q, want envs_unavailable", path, e.Error.Code)
		}
	}
}

// TestEnvsListing: /api/v1/envs returns every registered environment.
func TestEnvsListing(t *testing.T) {
	srv, _ := fleetFixture(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/api/v1/envs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Envs []EnvInfo `json:"envs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Envs) != 2 || body.Envs[0].ID != "room-a" || body.Envs[1].ID != "room-b" {
		t.Fatalf("envs = %+v", body.Envs)
	}
}

// TestEnvStatsIsolation: each env's stats route serves its own hook.
func TestEnvStatsIsolation(t *testing.T) {
	srv, _ := fleetFixture(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	want := map[string]uint64{"room-a": 101, "room-b": 202}
	for _, env := range []string{"room-a", "room-b"} {
		resp, err := http.Get(ts.URL + "/api/v1/" + env + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var body api.PipelineStats
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if body.ReportsIn != want[env] {
			t.Fatalf("stats for %s = %+v", env, body)
		}
	}
}

// TestEnvPositionsIsolation is the acceptance test for tenant
// isolation on the read side: room-a's JSON body and SSE stream carry
// only room-a fixes while room-b publishes interleave, and the
// whole-fleet route still sees both.
func TestEnvPositionsIsolation(t *testing.T) {
	srv, hub := fleetFixture(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// SSE stream on room-a, opened before any traffic.
	req, _ := http.NewRequest("GET", ts.URL+"/api/v1/room-a/positions?stream=1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	rd := bufio.NewReader(resp.Body)

	const rounds = 5
	go func() {
		for i := uint32(1); i <= rounds; i++ {
			hub.Publish(Position{Env: "room-b", Seq: 1000 + i, X: -1})
			hub.Publish(Position{Env: "room-a", Seq: i, X: float64(i)})
		}
	}()

	// Read rounds data frames off the stream; every one must be room-a,
	// in publish order, with keepalive comments tolerated.
	var seen []Position
	deadline := time.After(5 * time.Second)
	for len(seen) < rounds {
		select {
		case <-deadline:
			t.Fatalf("stream stalled after %d frames", len(seen))
		default:
		}
		line, err := rd.ReadString('\n')
		if err != nil {
			t.Fatalf("stream read: %v", err)
		}
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var p Position
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &p); err != nil {
			t.Fatal(err)
		}
		if p.Env != "room-a" {
			t.Fatalf("room-a stream delivered env %q (seq %d)", p.Env, p.Seq)
		}
		seen = append(seen, p)
	}
	for i, p := range seen {
		if p.Seq != uint32(i+1) {
			t.Fatalf("room-a frames out of order: %+v", seen)
		}
	}

	// JSON bodies: env-scoped routes carry exactly their env; the
	// whole-fleet route carries both.
	get := func(path string) []Position {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Positions []Position `json:"positions"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body.Positions
	}
	a := get("/api/v1/room-a/positions")
	if len(a) != 1 || a[0].Env != "room-a" || a[0].Seq != rounds {
		t.Fatalf("room-a positions = %+v", a)
	}
	b := get("/api/v1/room-b/positions")
	if len(b) != 1 || b[0].Env != "room-b" {
		t.Fatalf("room-b positions = %+v", b)
	}
	all := get("/api/v1/positions")
	if len(all) != 2 || all[0].Env != "room-a" || all[1].Env != "room-b" {
		t.Fatalf("aggregate positions = %+v", all)
	}
}

// TestLegacyPositionsSSEViaHub: the whole-fleet stream endpoint,
// wired to a Hub (not a Broker), delivers fixes from every
// environment.
func TestLegacyPositionsSSEViaHub(t *testing.T) {
	srv, hub := fleetFixture(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req, _ := http.NewRequest("GET", ts.URL+"/api/v1/positions?stream=1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)

	go func() {
		hub.Publish(Position{Env: "room-a", Seq: 1})
		hub.Publish(Position{Env: "room-b", Seq: 2})
	}()
	var envs []string
	for len(envs) < 2 {
		line, err := rd.ReadString('\n')
		if err != nil {
			t.Fatalf("stream read: %v", err)
		}
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var p Position
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &p); err != nil {
			t.Fatal(err)
		}
		envs = append(envs, p.Env)
	}
	if envs[0] != "room-a" || envs[1] != "room-b" {
		t.Fatalf("aggregate stream envs = %v", envs)
	}
}
