package serve

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"dwatch/internal/obs"
)

func hubNext(t *testing.T, w *Watcher) [][]byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	frames, err := w.Next(ctx)
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	return frames
}

func frameEnv(t *testing.T, data []byte) string {
	t.Helper()
	var p Position
	if err := json.Unmarshal(data, &p); err != nil {
		t.Fatalf("frame is not a Position: %v (%s)", err, data)
	}
	return p.Env
}

// TestHubSnapshotDelta pins the core contract: watchers see every
// frame published after Watch in order, late joiners get the
// latest-per-env snapshot, and Latest/LatestForEnv track the newest
// fix per environment.
func TestHubSnapshotDelta(t *testing.T) {
	h := NewHub()
	w := h.Watch("")
	defer w.Close()

	for seq := uint32(1); seq <= 3; seq++ {
		if err := h.Publish(Position{Env: "a", Seq: seq, X: float64(seq)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Publish(Position{Env: "b", Seq: 9}); err != nil {
		t.Fatal(err)
	}

	var got []string
	for len(got) < 4 {
		for _, fr := range hubNext(t, w) {
			got = append(got, frameEnv(t, fr))
		}
	}
	want := []string{"a", "a", "a", "b"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frame order = %v, want %v", got, want)
		}
	}

	// Late joiner: the snapshot holds exactly one frame per env.
	late := h.Watch("")
	defer late.Close()
	snap := late.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot frames = %d, want 2", len(snap))
	}
	if e := frameEnv(t, snap[0]); e != "a" {
		t.Fatalf("snapshot[0] env = %q, want a (sorted)", e)
	}

	if p, ok := h.LatestForEnv("a"); !ok || p.Seq != 3 {
		t.Fatalf("LatestForEnv(a) = %+v %v, want seq 3", p, ok)
	}
	if all := h.Latest(); len(all) != 2 || all[0].Env != "a" || all[1].Env != "b" {
		t.Fatalf("Latest() = %+v", all)
	}
	if _, ok := h.LatestForEnv("nope"); ok {
		t.Fatal("LatestForEnv(nope) = ok")
	}

	h.Forget("a")
	if _, ok := h.LatestForEnv("a"); ok {
		t.Fatal("LatestForEnv after Forget = ok")
	}
}

// TestHubEnvFiltering is the broadcast-plane half of tenant isolation:
// a watcher scoped to one environment never observes another
// environment's fixes, no matter how they interleave.
func TestHubEnvFiltering(t *testing.T) {
	h := NewHub()
	wa := h.Watch("a")
	defer wa.Close()

	for i := uint32(1); i <= 5; i++ {
		h.Publish(Position{Env: "b", Seq: i})
		h.Publish(Position{Env: "a", Seq: i})
		h.Publish(Position{Env: "c", Seq: i})
	}
	var got []Position
	for len(got) < 5 {
		for _, fr := range hubNext(t, wa) {
			var p Position
			if err := json.Unmarshal(fr, &p); err != nil {
				t.Fatal(err)
			}
			if p.Env != "a" {
				t.Fatalf("env-a watcher saw env %q (seq %d)", p.Env, p.Seq)
			}
			got = append(got, p)
		}
	}
	for i, p := range got {
		if p.Seq != uint32(i+1) {
			t.Fatalf("env-a frames out of order: %+v", got)
		}
	}
}

// TestHubLagResync: a watcher that stalls past the delta ring loses
// the missed frames but converges via the latest-per-env snapshot —
// and the resync is counted.
func TestHubLagResync(t *testing.T) {
	reg := obs.NewRegistry()
	h := NewHub(WithHubRing(4), WithHubObs(reg))
	w := h.Watch("")
	defer w.Close()

	for i := uint32(1); i <= 20; i++ {
		h.Publish(Position{Env: "a", Seq: i})
	}
	frames := hubNext(t, w)
	if len(frames) != 1 {
		t.Fatalf("resync frames = %d, want 1 (snapshot)", len(frames))
	}
	var p Position
	if err := json.Unmarshal(frames[0], &p); err != nil {
		t.Fatal(err)
	}
	if p.Seq != 20 {
		t.Fatalf("resync frame seq = %d, want 20 (the newest)", p.Seq)
	}
	if w.Resyncs() != 1 {
		t.Fatalf("Resyncs = %d, want 1", w.Resyncs())
	}
	snap := reg.Snapshot()
	if v := snap["dwatch_broker_resyncs_total"]; v != 1 {
		t.Fatalf("dwatch_broker_resyncs_total = %v, want 1", v)
	}
	if v := snap["dwatch_broker_publishes_total"]; v != 20 {
		t.Fatalf("dwatch_broker_publishes_total = %v, want 20", v)
	}

	// Caught up: the next publish flows as a plain delta again.
	h.Publish(Position{Env: "a", Seq: 21})
	frames = hubNext(t, w)
	if len(frames) != 1 || w.Resyncs() != 1 {
		t.Fatalf("post-resync delta: frames=%d resyncs=%d", len(frames), w.Resyncs())
	}
}

// TestHubNextContext: Next returns promptly when the context ends.
func TestHubNextContext(t *testing.T) {
	h := NewHub()
	w := h.Watch("")
	defer w.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := w.Next(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Next on idle hub = %v, want deadline exceeded", err)
	}
}

// TestHubSchemaStamp: Publish stamps the wire schema version exactly
// like the legacy Broker did.
func TestHubSchemaStamp(t *testing.T) {
	h := NewHub()
	h.Publish(Position{Env: "a", Seq: 1})
	p, _ := h.LatestForEnv("a")
	if p.Schema != PositionSchema {
		t.Fatalf("schema = %d, want %d", p.Schema, PositionSchema)
	}
	w := h.Watch("")
	defer w.Close()
	h.Publish(Position{Env: "a", Seq: 2})
	if fr := hubNext(t, w); !strings.Contains(string(fr[0]), `"schema":3`) {
		t.Fatalf("frame lacks schema stamp: %s", fr[0])
	}
}

// TestHubConcurrentPublishWatch hammers the hub from parallel
// publishers and watchers — the race detector's playground. Every
// watcher must observe its environment's final sequence number
// (possibly via resync) and nothing from other environments.
func TestHubConcurrentPublishWatch(t *testing.T) {
	h := NewHub(WithHubRing(64))
	const perEnv = 200
	envs := []string{"a", "b", "c"}

	var wg sync.WaitGroup
	for _, env := range envs {
		// Attach before any publish, so the final seq is observable.
		w := h.Watch(env)
		wg.Add(1)
		go func(env string) {
			defer wg.Done()
			defer w.Close()
			deadline, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			for {
				frames, err := w.Next(deadline)
				if err != nil {
					t.Errorf("watcher %s: %v", env, err)
					return
				}
				for _, fr := range frames {
					var p Position
					if err := json.Unmarshal(fr, &p); err != nil {
						t.Errorf("watcher %s: %v", env, err)
						return
					}
					if p.Env != env {
						t.Errorf("watcher %s saw env %s", env, p.Env)
						return
					}
					if p.Seq == perEnv {
						return
					}
				}
			}
		}(env)
	}
	for _, env := range envs {
		wg.Add(1)
		go func(env string) {
			defer wg.Done()
			for i := uint32(1); i <= perEnv; i++ {
				if err := h.Publish(Position{Env: env, Seq: i}); err != nil {
					t.Errorf("publish %s: %v", env, err)
					return
				}
			}
		}(env)
	}
	wg.Wait()
}
