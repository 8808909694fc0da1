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
	"dwatch/internal/health"
	"dwatch/internal/pmusic"
	"dwatch/internal/tracing"
)

// tracedServer builds a server whose environment "lab" has one
// finished trace and one RF observation behind it, returning the trace
// ID.
func tracedServer(t *testing.T) (*Server, string) {
	t.Helper()
	base := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	tr := tracing.New(tracing.WithIDSeed(9))
	h := tr.Begin(5, base)
	h.Span(tracing.StageIngest, "r1", "", base, base.Add(time.Millisecond), 0)
	h.Span(tracing.StageSpectrum, "r1", "aa01", base.Add(time.Millisecond), base.Add(8*time.Millisecond), 2*time.Millisecond)
	h.Span(tracing.StageAssemble, "", "", base, base.Add(9*time.Millisecond), 0)
	h.Span(tracing.StageFuse, "", "", base.Add(9*time.Millisecond), base.Add(11*time.Millisecond), 0)
	tr.Finish(5, tracing.OutcomeFix, base.Add(11*time.Millisecond))

	mon := health.New(nil, health.Options{})
	sp := &pmusic.Spectrum{Angles: []float64{-0.1, 0, 0.1}, Power: []float64{0.2, 1, 0.2}}
	mon.Observe("r1", "\xaa\x01", sp, base)
	mon.Observe("r1", "\xaa\x01", sp, base.Add(100*time.Millisecond))

	env := EnvHandle{Info: EnvInfo{ID: "lab"}, Tracer: tr, Health: mon}
	return New(WithEnvLookup(func(id string) (EnvHandle, bool) { return env, id == "lab" })), h.ID()
}

func TestTracesListAndDetail(t *testing.T) {
	s, id := tracedServer(t)

	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/api/v1/lab/traces", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("list status = %d", rr.Code)
	}
	var list struct {
		Traces []tracing.Summary `json:"traces"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) != 1 || list.Traces[0].ID != id || list.Traces[0].Spans != 4 {
		t.Fatalf("list = %+v", list.Traces)
	}

	rr = httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/api/v1/lab/traces/"+id, nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("detail status = %d: %s", rr.Code, rr.Body.String())
	}
	var d tracing.Data
	if err := json.Unmarshal(rr.Body.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if d.ID != id || len(d.Spans) != 4 || d.Outcome != tracing.OutcomeFix {
		t.Fatalf("detail = %+v", d)
	}

	rr = httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/api/v1/lab/traces/no-such-id", nil))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("missing trace status = %d", rr.Code)
	}
	var env api.Error
	if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil || env.Error.Code != "trace_not_found" {
		t.Fatalf("missing trace envelope: %s (err %v)", rr.Body.String(), err)
	}
}

func TestTracesChromeFormat(t *testing.T) {
	s, id := tracedServer(t)
	for _, url := range []string{"/api/v1/lab/traces?format=chrome", "/api/v1/lab/traces/" + id + "?format=chrome"} {
		rr := httptest.NewRecorder()
		s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", url, nil))
		if rr.Code != http.StatusOK {
			t.Fatalf("%s: status %d", url, rr.Code)
		}
		var doc struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
			t.Fatalf("%s: not trace_event JSON: %v", url, err)
		}
		var spans int
		for _, ev := range doc.TraceEvents {
			if ev["ph"] == "X" {
				spans++
			}
		}
		if spans != 4 {
			t.Fatalf("%s: %d span events, want 4", url, spans)
		}
	}
}

// TestTracesUnconfigured: an environment without a tracer or health
// monitor answers those routes with a 404 envelope naming what is
// missing.
func TestTracesUnconfigured(t *testing.T) {
	env := EnvHandle{Info: EnvInfo{ID: "lab"}}
	s := New(WithEnvLookup(func(id string) (EnvHandle, bool) { return env, id == "lab" }))
	for url, code := range map[string]string{
		"/api/v1/lab/traces":   "traces_unavailable",
		"/api/v1/lab/traces/x": "traces_unavailable",
		"/api/v1/lab/health":   "health_unavailable",
	} {
		rr := httptest.NewRecorder()
		s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", url, nil))
		if rr.Code != http.StatusNotFound {
			t.Fatalf("%s without hooks: status %d", url, rr.Code)
		}
		var e api.Error
		if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || e.Error.Code != code {
			t.Fatalf("%s envelope: %s (err %v), want code %s", url, rr.Body.String(), err, code)
		}
	}
}

func TestRFHealthEndpoint(t *testing.T) {
	s, _ := tracedServer(t)
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/api/v1/lab/health", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("health status = %d", rr.Code)
	}
	var snap health.Snapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Readers) != 1 || snap.Readers[0].ID != "r1" {
		t.Fatalf("health snapshot = %+v", snap)
	}
	tag := snap.Readers[0].Tags[0]
	if tag.EPC != "aa01" || tag.Reads != 2 || tag.RateHz == 0 || len(tag.Paths) == 0 {
		t.Fatalf("tag health = %+v", tag)
	}
}

// TestSSEKeepalive: an idle position stream emits ": keepalive" comment
// frames at the configured interval without fabricating events.
func TestSSEKeepalive(t *testing.T) {
	h := NewHub()
	s := New(WithHub(h), WithSSEKeepalive(20*time.Millisecond))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req, _ := http.NewRequest("GET", ts.URL+"/api/v1/positions?stream=1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)

	// With no fixes published, the first frames on the wire must be
	// keepalive comments.
	deadline := time.After(5 * time.Second)
	got := make(chan string, 1)
	go func() {
		for {
			line, err := rd.ReadString('\n')
			if err != nil {
				got <- "read error: " + err.Error()
				return
			}
			if strings.TrimSpace(line) != "" {
				got <- strings.TrimRight(line, "\n")
				return
			}
		}
	}()
	select {
	case line := <-got:
		if line != ": keepalive" {
			t.Fatalf("first idle frame = %q, want \": keepalive\"", line)
		}
	case <-deadline:
		t.Fatal("no keepalive frame on an idle stream")
	}

	// A real fix still flows after keepalives.
	if err := h.Publish(Position{Env: "hall", Seq: 9, X: 1, Y: 2, TraceID: "abc"}); err != nil {
		t.Fatal(err)
	}
	ps := readSSE(t, rd, 1, 5*time.Second)
	if ps[0].Seq != 9 || ps[0].TraceID != "abc" {
		t.Fatalf("post-keepalive event = %+v", ps[0])
	}
}
