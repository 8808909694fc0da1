package llrp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// FuzzUnmarshalROAccessReport is a native fuzz target for the report
// parser — the main untrusted input surface. Run with
//
//	go test -fuzz=FuzzUnmarshalROAccessReport ./internal/llrp
//
// In normal test runs only the seed corpus executes.
func FuzzUnmarshalROAccessReport(f *testing.F) {
	good, err := sampleReport().Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 4})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := UnmarshalROAccessReport(data)
		if err != nil {
			return
		}
		// Parsed reports must be internally sane, and every tag's rows
		// rectangular with the dims its snapshot header declares.
		for _, tr := range rep.Reports {
			if len(tr.EPC) == 0 {
				t.Fatal("empty EPC accepted")
			}
			rows := tr.Rows(nil)
			wantRows, wantCols := 0, 0
			if tr.wire != nil {
				wantRows = int(binary.BigEndian.Uint16(tr.wire[0:2]))
				wantCols = int(binary.BigEndian.Uint16(tr.wire[2:4]))
			}
			if len(rows) != wantRows || wantRows > maxSnapshotDim {
				t.Fatalf("%d rows for a %dx%d snapshot header", len(rows), wantRows, wantCols)
			}
			for _, row := range rows {
				if len(row) != wantCols || len(row) > maxSnapshotDim {
					t.Fatalf("row of %d samples for a %dx%d snapshot header", len(row), wantRows, wantCols)
				}
			}
		}
		// Unmarshal∘Marshal∘Unmarshal reads the same sample bits. An EPC
		// longer than the encoder allows is the one thing the decoder
		// takes and Marshal refuses.
		again, err := rep.Marshal()
		if err != nil {
			if !errors.Is(err, ErrBadParam) {
				t.Fatalf("re-marshal: %v", err)
			}
			return
		}
		rep2, err := UnmarshalROAccessReport(again)
		if err != nil {
			t.Fatalf("re-marshaled report refused: %v", err)
		}
		if rep2.ReaderID != rep.ReaderID || rep2.Seq != rep.Seq || len(rep2.Reports) != len(rep.Reports) {
			t.Fatalf("round trip: %q/%d/%d tags, want %q/%d/%d",
				rep2.ReaderID, rep2.Seq, len(rep2.Reports), rep.ReaderID, rep.Seq, len(rep.Reports))
		}
		for i := range rep.Reports {
			a, b := rep.Reports[i].Rows(nil), rep2.Reports[i].Rows(nil)
			if !bytes.Equal(rep.Reports[i].EPC, rep2.Reports[i].EPC) || len(a) != len(b) {
				t.Fatalf("tag %d: round trip changed EPC or row count", i)
			}
			for r := range a {
				if len(a[r]) != len(b[r]) {
					t.Fatalf("tag %d row %d: %d samples, then %d", i, r, len(a[r]), len(b[r]))
				}
				for c := range a[r] {
					if sampleBits(a[r][c]) != sampleBits(b[r][c]) {
						t.Fatalf("tag %d [%d][%d]: %v, then %v", i, r, c, a[r][c], b[r][c])
					}
				}
			}
		}
	})
}

// sampleBits is a sample's exact bit pattern (NaN payloads included).
func sampleBits(c complex128) [2]uint64 {
	return [2]uint64{math.Float64bits(real(c)), math.Float64bits(imag(c))}
}

// FuzzParseHeader covers the framing layer.
func FuzzParseHeader(f *testing.F) {
	h, _ := MarshalHeader(MsgKeepalive, 1, 0)
	f.Add(h)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, _, total, err := ParseHeader(data)
		if err != nil {
			return
		}
		if total < HeaderLen || total > MaxMessageLen {
			t.Fatalf("accepted total %d", total)
		}
		if typ > 0x1FFF {
			t.Fatalf("type %d out of field range", typ)
		}
	})
}
