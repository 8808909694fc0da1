package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// openReplay recovers dir through Open's one scan, collecting every
// record the replay function is handed.
func openReplay(t *testing.T, dir string) (*WAL, []Record, error) {
	t.Helper()
	var got []Record
	w, err := Open(dir, WithFsync(FsyncNever), WithReplay(func(r Record) error {
		got = append(got, r)
		return nil
	}))
	return w, got, err
}

// sameRecords fails unless got and want agree record for record in
// seq, type, time and payload bytes.
func sameRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replay delivered %d records, scan %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Seq != w.Seq || g.Type != w.Type || !g.At.Equal(w.At) || !bytes.Equal(g.Payload, w.Payload) {
			t.Fatalf("record %d: replay {seq %d type %d at %v %d bytes}, scan {seq %d type %d at %v %d bytes}",
				i, g.Seq, g.Type, g.At, len(g.Payload), w.Seq, w.Type, w.At, len(w.Payload))
		}
	}
}

// TestReplayMatchesScan: replay through Open delivers exactly the
// records Scan reads from the same log, in order — across segments,
// up to a torn final tail or a CRC flip in the final segment, and past
// a header-only final segment — and Open then recovers as it would
// without a replay function.
func TestReplayMatchesScan(t *testing.T) {
	payload := make([]byte, 60)
	recLen := encodedLen(payload)
	segMax := int64(segHeaderLen) + 3*recLen // 3 records per segment
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, dir string, segs []string)
		want   int // records recovered
	}{
		{"multi-segment", func(*testing.T, string, []string) {}, 8},
		{"torn final tail", func(t *testing.T, dir string, segs []string) {
			last := filepath.Join(dir, segs[len(segs)-1])
			st, err := os.Stat(last)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(last, st.Size()-recLen+recHeaderLen+5); err != nil {
				t.Fatal(err)
			}
		}, 7},
		{"crc flip in final segment", func(t *testing.T, dir string, segs []string) {
			corruptAt(t, dir, segs[len(segs)-1], int64(segHeaderLen)+recHeaderLen+recFixedLen+7)
		}, 6},
		{"header-only final segment", func(t *testing.T, dir string, _ []string) {
			hdr := append([]byte(segMagic), segVersion)
			if err := os.WriteFile(filepath.Join(dir, segmentName(9)), hdr, 0o644); err != nil {
				t.Fatal(err)
			}
		}, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := Open(dir, WithFsync(FsyncNever), WithSegmentMaxBytes(segMax))
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, w, 8, len(payload)) // segments of 3, 3 and 2 records
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			tc.damage(t, dir, segmentFiles(t, dir))
			want, res := readAll(t, dir)

			w2, got, err := openReplay(t, dir)
			if err != nil {
				t.Fatalf("open with replay: %v", err)
			}
			defer w2.Close()
			sameRecords(t, got, want)
			st := w2.Status()
			if len(got) != tc.want || st.Recovered != tc.want || st.NextSeq != uint64(tc.want)+1 {
				t.Fatalf("recovered %d records (status %d, next seq %d), want %d", len(got), st.Recovered, st.NextSeq, tc.want)
			}
			if (st.Damage != nil) != (res.Damage != nil) {
				t.Fatalf("open damage %v, scan damage %v", st.Damage, res.Damage)
			}
			// The recovered log reads back as exactly what was replayed.
			after, res := readAll(t, dir)
			if res.Damage != nil {
				t.Fatalf("recovered log still damaged: %v", res.Damage)
			}
			sameRecords(t, after, got)
		})
	}
}

// TestReplayMidLogDamageRefusesOpen: damage before the final segment
// still refuses Open, replay function or not, and leaves every file as
// it was. The replay function has seen the records before the damage.
func TestReplayMidLogDamageRefusesOpen(t *testing.T) {
	payload := make([]byte, 60)
	recLen := encodedLen(payload)
	dir := t.TempDir()
	w, err := Open(dir, WithFsync(FsyncNever), WithSegmentMaxBytes(int64(segHeaderLen)+2*recLen))
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 6, len(payload)) // 3 segments, 2 records each
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segmentFiles(t, dir)
	corruptAt(t, dir, segs[1], int64(segHeaderLen)+recLen+recHeaderLen+4)
	sizes := map[string]int64{}
	for _, s := range segs {
		st, err := os.Stat(filepath.Join(dir, s))
		if err != nil {
			t.Fatal(err)
		}
		sizes[s] = st.Size()
	}

	if _, got, err := openReplay(t, dir); err == nil {
		t.Fatal("open with replay accepted damage in a non-final segment")
	} else if len(got) != 3 {
		t.Fatalf("replay saw %d records before the damage, want 3", len(got))
	}
	for _, s := range segmentFiles(t, dir) {
		st, err := os.Stat(filepath.Join(dir, s))
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != sizes[s] {
			t.Fatalf("refused open changed %s: %d bytes, was %d", s, st.Size(), sizes[s])
		}
	}
}

// TestReplayErrorAbortsOpen: an error from the replay function stops
// the scan and fails Open with that error, wrapped, truncating nothing.
func TestReplayErrorAbortsOpen(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, WithFsync(FsyncNever))
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 4, 20)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop")
	seen := 0
	_, err = Open(dir, WithReplay(func(Record) error {
		if seen++; seen == 2 {
			return stop
		}
		return nil
	}))
	if !errors.Is(err, stop) || seen != 2 {
		t.Fatalf("open = %v after %d records, want the replay's error after 2", err, seen)
	}
	if got, res := readAll(t, dir); len(got) != 4 || res.Damage != nil {
		t.Fatalf("log after aborted open: %d records, damage %v", len(got), res.Damage)
	}
}

// TestOpenReplayAllocatesOneCopy: recovering n records of P payload
// bytes through a replay function that keeps every payload allocates
// little more than the n·P bytes handed out — each payload is read
// once, into its own buffer, and recovery makes no second pass.
func TestOpenReplayAllocatesOneCopy(t *testing.T) {
	const n, p = 200, 13_500
	dir := t.TempDir()
	w, err := Open(dir, WithFsync(FsyncNever))
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, n, p)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	kept := make([][]byte, 0, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w, err = Open(dir, WithFsync(FsyncNever), WithReplay(func(r Record) error {
		kept = append(kept, r.Payload)
		return nil
	}))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if len(kept) != n {
		t.Fatalf("replayed %d records, want %d", len(kept), n)
	}
	got := after.TotalAlloc - before.TotalAlloc
	if limit := uint64(1.2 * n * p); got >= limit {
		t.Fatalf("recovering %d records of %d bytes allocated %d bytes, want < %d (1.2·n·P)", n, p, got, limit)
	}
	t.Logf("recovery allocated %d bytes for n·P = %d (%.3f·n·P)", got, n*p, float64(got)/(n*p))
}

// BenchmarkWALRecover measures recovery of a 20 MB log — 1,504 records
// of 13.5 KB payloads, about the size of a library report — through a
// replay callback, as fleet.Add recovers an environment. B/op is what
// one recovery allocates: the payloads it hands out, and little else.
func BenchmarkWALRecover(b *testing.B) {
	const n, p = 1504, 13_500
	dir := b.TempDir()
	w, err := Open(dir, WithFsync(FsyncNever))
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5a}, p)
	at := time.UnixMicro(1_700_000_000_000_000)
	for i := 0; i < n; i++ {
		if _, err := w.Append(at, 61, payload); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(n * encodedLen(payload))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		records := 0
		w, err := Open(dir, WithFsync(FsyncNever), WithReplay(func(Record) error {
			records++
			return nil
		}))
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		if records != n {
			b.Fatalf("replayed %d records, want %d", records, n)
		}
	}
}
