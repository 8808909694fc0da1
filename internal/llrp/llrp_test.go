package llrp

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHeaderRoundTrip(t *testing.T) {
	h, err := MarshalHeader(MsgROAccessReport, 77, 100)
	if err != nil {
		t.Fatal(err)
	}
	typ, id, total, err := ParseHeader(h)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgROAccessReport || id != 77 || total != HeaderLen+100 {
		t.Errorf("parsed %d %d %d", typ, id, total)
	}
}

func TestHeaderValidation(t *testing.T) {
	if _, err := MarshalHeader(1, 1, MaxMessageLen); !errors.Is(err, ErrTooLarge) {
		t.Errorf("too large: %v", err)
	}
	if _, _, _, err := ParseHeader([]byte{1, 2, 3}); !errors.Is(err, ErrBadHeader) {
		t.Errorf("short: %v", err)
	}
	// Wrong version.
	h, _ := MarshalHeader(1, 1, 0)
	h[0] ^= 0xE0
	if _, _, _, err := ParseHeader(h); !errors.Is(err, ErrBadVersion) {
		t.Errorf("version: %v", err)
	}
	// Absurd length.
	h2, _ := MarshalHeader(1, 1, 0)
	h2[2], h2[3], h2[4], h2[5] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, _, _, err := ParseHeader(h2); !errors.Is(err, ErrBadHeader) {
		t.Errorf("length: %v", err)
	}
}

func sampleReport() *ROAccessReport {
	return &ROAccessReport{
		ReaderID: "reader-1",
		Seq:      42,
		Reports: []TagReport{
			{
				EPC:          []byte{0x30, 0x08, 0x33, 0xB2, 0xDD, 0xD9, 0x01, 0x40, 0x00, 0x00, 0x00, 0x01},
				AntennaID:    3,
				PeakRSSIcdBm: -6450,
				Snapshot: [][]complex128{
					{1 + 2i, 3 - 4i},
					{-0.5 + 0.25i, 0},
				},
			},
			{
				EPC:       []byte{0xAA, 0xBB},
				AntennaID: 1,
				Snapshot:  [][]complex128{},
			},
		},
	}
}

func TestROAccessReportRoundTrip(t *testing.T) {
	r := sampleReport()
	payload, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalROAccessReport(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.ReaderID != "reader-1" {
		t.Errorf("ReaderID = %q", got.ReaderID)
	}
	if got.Seq != 42 {
		t.Errorf("Seq = %d", got.Seq)
	}
	if len(got.Reports) != 2 {
		t.Fatalf("reports = %d", len(got.Reports))
	}
	tr := got.Reports[0]
	if !bytes.Equal(tr.EPC, r.Reports[0].EPC) {
		t.Errorf("EPC = %x", tr.EPC)
	}
	if tr.AntennaID != 3 || tr.PeakRSSIcdBm != -6450 {
		t.Errorf("antenna/rssi = %d/%d", tr.AntennaID, tr.PeakRSSIcdBm)
	}
	snap := tr.Rows(nil)
	if len(snap) != 2 || len(snap[0]) != 2 {
		t.Fatalf("snapshot shape %dx%d", len(snap), len(snap[0]))
	}
	// float32 precision round trip.
	if snap[0][0] != 1+2i || snap[1][0] != -0.5+0.25i {
		t.Errorf("snapshot values: %v", snap)
	}
}

func TestROAccessReportValidation(t *testing.T) {
	bad := &ROAccessReport{Reports: []TagReport{{EPC: nil}}}
	if _, err := bad.Marshal(); !errors.Is(err, ErrBadParam) {
		t.Errorf("empty EPC: %v", err)
	}
	ragged := &ROAccessReport{Reports: []TagReport{{
		EPC:      []byte{1, 2},
		Snapshot: [][]complex128{{1}, {1, 2}},
	}}}
	if _, err := ragged.Marshal(); !errors.Is(err, ErrBadParam) {
		t.Errorf("ragged snapshot: %v", err)
	}
	if _, err := UnmarshalROAccessReport([]byte{0, 0, 0}); !errors.Is(err, ErrBadParam) {
		t.Errorf("truncated payload: %v", err)
	}
}

func TestSnapshotFuzzRoundTrip(t *testing.T) {
	f := func(rows, cols uint8, seed int64) bool {
		r := int(rows%6) + 1
		c := int(cols%6) + 1
		rng := rand.New(rand.NewSource(seed))
		s := make([][]complex128, r)
		for i := range s {
			s[i] = make([]complex128, c)
			for j := range s[i] {
				s[i][j] = complex(float64(float32(rng.NormFloat64())), float64(float32(rng.NormFloat64())))
			}
		}
		enc, err := marshalSnapshot(s)
		if err != nil {
			return false
		}
		if err := checkSnapshot(enc); err != nil {
			return false
		}
		dec := (&TagReport{wire: enc}).Rows(nil)
		if len(dec) != r {
			return false
		}
		for i := range s {
			for j := range s[i] {
				if dec[i][j] != s[i][j] {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestReaderEventRoundTrip(t *testing.T) {
	e := &ReaderEvent{Text: "hello"}
	got, err := UnmarshalReaderEvent(e.Marshal())
	if err != nil || got.Text != "hello" {
		t.Errorf("event = %+v, %v", got, err)
	}
}

func TestServerClientEndToEnd(t *testing.T) {
	var (
		mu       sync.Mutex
		received []*ROAccessReport
	)
	srv := &Server{Handler: HandlerFunc(func(conn *Conn, msg Message) error {
		switch msg.Type {
		case MsgKeepalive:
			return conn.SendWithID(MsgKeepaliveAck, msg.ID, nil)
		case MsgROAccessReport:
			rep, err := UnmarshalROAccessReport(msg.Payload)
			if err != nil {
				return err
			}
			mu.Lock()
			received = append(received, rep)
			mu.Unlock()
		}
		return nil
	})}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	conn, err := Dial(ctx, addr.String())
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.SendKeepalive(); err != nil {
		t.Fatalf("keepalive: %v", err)
	}
	payload, err := sampleReport().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := conn.Send(MsgROAccessReport, payload); err != nil {
			t.Fatal(err)
		}
	}
	// Graceful close: request + response.
	id, err := conn.Send(MsgCloseConnection, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != MsgCloseConnectionResponse || resp.ID != id {
		t.Errorf("close response: %+v", resp)
	}
	conn.Close()

	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; !errors.Is(err, ErrServerClosed) {
		t.Errorf("Serve returned %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(received) != 3 {
		t.Errorf("server received %d reports, want 3", len(received))
	}
	if len(received) > 0 && received[0].ReaderID != "reader-1" {
		t.Errorf("reader id = %q", received[0].ReaderID)
	}
}

func TestServeBeforeListen(t *testing.T) {
	srv := &Server{}
	if err := srv.Serve(); err == nil {
		t.Error("Serve before Listen must error")
	}
}

func TestDialRefused(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := Dial(ctx, "127.0.0.1:1"); err == nil {
		t.Error("expected connection error")
	}
}

func TestConcurrentSenders(t *testing.T) {
	var count int
	var mu sync.Mutex
	srv := &Server{Handler: HandlerFunc(func(conn *Conn, msg Message) error {
		if msg.Type == MsgROAccessReport {
			if _, err := UnmarshalROAccessReport(msg.Payload); err != nil {
				return err
			}
			mu.Lock()
			count++
			mu.Unlock()
		}
		return nil
	})}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	conn, err := Dial(ctx, addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload, _ := sampleReport().Marshal()
	// Interleaved writes from several goroutines must not corrupt frames.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := conn.Send(MsgROAccessReport, payload); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		c := count
		mu.Unlock()
		if c == 160 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server received %d of 160", c)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestROSpecRoundTrip(t *testing.T) {
	r := &ROSpec{ID: 7, PeriodMs: 100, SnapshotsPerTag: 10}
	got, err := UnmarshalROSpec(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *r {
		t.Errorf("round trip: %+v", got)
	}
	// Malformed field lengths are rejected.
	bad := appendParam(nil, ParamROSpecID, []byte{1})
	if _, err := UnmarshalROSpec(bad); !errors.Is(err, ErrBadParam) {
		t.Errorf("short id: %v", err)
	}
	bad2 := appendParam(nil, ParamROSpecPeriod, []byte{1, 2, 3})
	if _, err := UnmarshalROSpec(bad2); !errors.Is(err, ErrBadParam) {
		t.Errorf("short period: %v", err)
	}
	bad3 := appendParam(nil, ParamROSpecSnapshots, []byte{1, 2, 3})
	if _, err := UnmarshalROSpec(bad3); !errors.Is(err, ErrBadParam) {
		t.Errorf("bad snapshots: %v", err)
	}
}

// TestDecodedRowsIntoWarmBuf: a decoded report keeps its snapshot
// bytes and decodes them on demand. Into a warm SnapshotBuf the decode
// allocates nothing, the rows carry the float32 samples exactly, and
// re-marshaling writes the payload back byte for byte.
func TestDecodedRowsIntoWarmBuf(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rep := &ROAccessReport{ReaderID: "hall/reader-1", Seq: 9}
	for tag := 0; tag < 3; tag++ {
		snap := make([][]complex128, 10)
		for i := range snap {
			snap[i] = make([]complex128, 8)
			for j := range snap[i] {
				snap[i][j] = complex(float64(float32(rng.NormFloat64())), float64(float32(rng.NormFloat64())))
			}
		}
		rep.Reports = append(rep.Reports, TagReport{EPC: []byte{byte(tag + 1)}, Snapshot: snap})
	}
	payload, err := rep.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalROAccessReport(payload)
	if err != nil {
		t.Fatal(err)
	}
	var buf SnapshotBuf
	for i := range got.Reports {
		if got.Reports[i].Snapshot != nil {
			t.Fatal("decoded report materialized its samples")
		}
		rows := got.Reports[i].Rows(&buf)
		for r := range rows {
			for c := range rows[r] {
				if rows[r][c] != rep.Reports[i].Snapshot[r][c] {
					t.Fatalf("tag %d [%d][%d] = %v, want %v", i, r, c, rows[r][c], rep.Reports[i].Snapshot[r][c])
				}
			}
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		for i := range got.Reports {
			got.Reports[i].Rows(&buf)
		}
	})
	if allocs != 0 {
		t.Fatalf("decode into warm buf: %v allocs, want 0", allocs)
	}
	again, err := got.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, payload) {
		t.Fatal("re-marshaled decoded report differs from its payload")
	}
}
