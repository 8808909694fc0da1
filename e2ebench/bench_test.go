package main

import (
	"math"
	"testing"
	"time"

	"dwatch/internal/llrp"
)

func TestTailPercentileHasTenBeyond(t *testing.T) {
	for _, q := range []float64{0.9, 0.99} {
		n := minSamples(q)
		if got := beyond(n, q); got < tailSamples {
			t.Errorf("q=%v: %d samples leave %d beyond, want ≥%d", q, n, got, tailSamples)
		}
		if got := beyond(n-1, q); got >= tailSamples {
			t.Errorf("q=%v: minSamples %d is not minimal (%d beyond at n-1)", q, n, got)
		}
	}
	if n := minSamples(0.99); n != 1000 {
		t.Errorf("minSamples(0.99) = %d, want 1000", n)
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if got := quantile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (10 samples beyond)", got)
	}
}

// fakeClock advances only when the sender sleeps or a send costs time.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time        { return c.t }
func (c *fakeClock) sleep(d time.Duration) { c.t = c.t.Add(d) }

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func keyOf(i int) roundKey { return roundKey{0, uint32(i)} }

// rounds returns one-report rounds due at the given offsets.
func rounds(at ...time.Duration) []send {
	out := make([]send, len(at))
	for i, a := range at {
		out[i] = send{at: a, last: true, key: keyOf(i)}
	}
	return out
}

func TestLatencyTimedFromDueCarriesStall(t *testing.T) {
	c := &fakeClock{t: time.Unix(100, 0)}
	t0 := c.now()
	items := rounds(0, ms(10), ms(20), ms(30))
	recv := map[roundKey]time.Time{}
	sends := 0
	s := sender{
		now: c.now, sleep: c.sleep,
		send: func([]byte) error {
			if sends == 0 {
				c.sleep(ms(25)) // the SUT stalls the first send (backpressure)
			}
			sends++
			return nil
		},
		// The fix for a round arrives 1 ms after its last report is sent.
		onLast: func(k roundKey) { recv[k] = c.now().Add(ms(1)) },
	}
	st, err := s.run(t0, items)
	if err != nil {
		t.Fatal(err)
	}
	// Timed from the due time, the stall counts against the rounds queued
	// behind it: rounds 1 and 2 (due at 10 and 20 ms) both go out at
	// 25 ms; round 3 is on time again.
	want := []time.Duration{ms(26), ms(16), ms(6), ms(1)}
	for i, it := range items {
		if got := recv[it.key].Sub(t0.Add(it.at)); got != want[i] {
			t.Errorf("round %d latency %v, want %v", i, got, want[i])
		}
	}
	// The stall is the SUT's, not the generator's: no send shows lag.
	for i, lag := range st.lag {
		if lag != 0 {
			t.Errorf("send %d generator lag %v, want 0", i, time.Duration(lag))
		}
	}
	if got := time.Duration(st.dur[0]); got != ms(25) {
		t.Errorf("stalled send took %v, want 25ms", got)
	}
}

func TestGeneratorLagCountsOwnLateness(t *testing.T) {
	c := &fakeClock{t: time.Unix(100, 0)}
	// The generator oversleeps by 3 ms on every wake-up.
	s := sender{
		now:   c.now,
		sleep: func(d time.Duration) { c.sleep(d + ms(3)) },
		send:  func([]byte) error { return nil },
	}
	st, err := s.run(c.now(), rounds(ms(5), ms(20)))
	if err != nil {
		t.Fatal(err)
	}
	for i, lag := range st.lag {
		if time.Duration(lag) != ms(3) {
			t.Errorf("send %d lag %v, want 3ms", i, time.Duration(lag))
		}
	}
}

func TestSelfTimeUnderOverlappingSpectrumSpans(t *testing.T) {
	// due at -1; ingest [0,2]; three overlapping spectrum spans all
	// starting at enqueue; assembly [3,10]; fuse [10,12]; delivery
	// [12,15].
	layers := [][]interval{
		{{0, 2}},
		{{0, 5}, {0, 9}, {1, 7}},
		{{3, 10}},
		{{10, 12}},
		{{12, 15}},
	}
	got := selfTimes(-1, 15, layers)
	want := []int64{2, 7, 1, 2, 3}
	var sum int64
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("layer %d self time %d, want %d", i, got[i], want[i])
		}
		sum += got[i]
	}
	if untraced := 16 - sum; untraced != 1 {
		t.Errorf("untraced %d, want 1", untraced)
	}
	// Spans are clipped to the end-to-end interval.
	if got := selfTimes(1, 4, [][]interval{{{0, 2}}, {{0, 9}}}); got[0] != 1 || got[1] != 2 {
		t.Errorf("clipped self times %v, want [1 2]", got)
	}
	// Disjoint spectrum spans add; a gap between them is nobody's.
	if got := selfTimes(0, 20, [][]interval{{{0, 1}}, {{2, 4}, {6, 9}}}); got[1] != 5 {
		t.Errorf("disjoint spectrum self time %d, want 5", got[1])
	}
	// An assembly that opened with an earlier reader's report claims
	// nothing before the critical report's spectra ended; the gap before
	// ingest stays unaccounted.
	if got := selfTimes(0, 10, [][]interval{{{2, 3}}, {{2, 5}}, {{-50, 6}}}); got[0] != 1 || got[1] != 2 || got[2] != 1 {
		t.Errorf("early-opened assembly self times %v, want [1 2 1]", got)
	}
}

func TestOracleFlagsBitFlipDropAndDuplicate(t *testing.T) {
	ref := &reference{fixes: map[roundKey]refFix{
		keyOf(3): {1.25, 2.5, 0.75, 3},
		keyOf(4): {3.5, 4.25, 0.5, 2},
		keyOf(5): {0.5, 0.75, 0.25, 4},
	}}
	want := []roundKey{keyOf(3), keyOf(4), keyOf(5), keyOf(6)} // 6 has no fix
	good := func(k roundKey) frame {
		r := ref.fixes[k]
		return frame{key: k, x: r.x, y: r.y, conf: r.conf, views: r.views}
	}
	clean := []frame{good(keyOf(3)), good(keyOf(4)), good(keyOf(5))}
	if v := ref.check(clean, want); v.failed() != 0 || v.expected != 3 {
		t.Fatalf("clean delivery: %v", v)
	}

	flipped := good(keyOf(4))
	flipped.x = math.Float64frombits(math.Float64bits(flipped.x) ^ 1)
	if v := ref.check([]frame{good(keyOf(3)), flipped, good(keyOf(5))}, want); v.mismatched != 1 || v.failed() != 1 {
		t.Errorf("flipped low bit: %v", v)
	}
	if v := ref.check([]frame{good(keyOf(3)), good(keyOf(5))}, want); v.missing != 1 || v.failed() != 1 {
		t.Errorf("dropped frame: %v", v)
	}
	if v := ref.check(append(clean, good(keyOf(5))), want); v.duplicate != 1 || v.failed() != 1 {
		t.Errorf("duplicate frame: %v", v)
	}
	if v := ref.check(append(clean, frame{key: keyOf(6)}), want); v.unexpected != 1 {
		t.Errorf("fix for a round the reference misses: %v", v)
	}
}

func TestPeekReadsReaderAndSequence(t *testing.T) {
	payload, err := (&llrp.ROAccessReport{ReaderID: "site-03/reader-2", Seq: 77}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	reader, seq, err := peek(payload)
	if err != nil || reader != "site-03/reader-2" || seq != 77 {
		t.Fatalf("peek = %q, %d, %v", reader, seq, err)
	}
	if _, _, err := peek(payload[:3]); err == nil {
		t.Error("truncated payload accepted")
	}
}

func TestFleetTargetsArePinnedData(t *testing.T) {
	for _, e := range workloads()["fleet-paced"].envs {
		pts, err := coveredLattice(e.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != len(coveredXY[e.cfg.Seed]) || pts[0].Z != e.cfg.ArrayZ {
			t.Fatalf("%s: %d points at z=%v, want the %d pinned at z=%v",
				e.id, len(pts), pts[0].Z, len(coveredXY[e.cfg.Seed]), e.cfg.ArrayZ)
		}
	}
	if _, err := coveredLattice(smallSite("other", 99).cfg); err == nil {
		t.Error("a layout with no pinned points was accepted")
	}
}
