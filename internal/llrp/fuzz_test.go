package llrp

import (
	"math/rand"
	"testing"
)

// Robustness: arbitrary bytes fed to the unmarshalers must return
// errors (or benign results), never panic or over-allocate. This is
// the parser surface an untrusted reader connection exercises.
func TestUnmarshalRandomBytesNoPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(256)
		buf := make([]byte, n)
		rng.Read(buf)
		// Must not panic; errors are fine.
		_, _ = UnmarshalROAccessReport(buf)
		_, _ = UnmarshalReaderEvent(buf)
		_, _ = UnmarshalReaderCapabilities(buf)
		_, _, _, _ = ParseHeader(buf)
	}
}

// Truncation: every prefix of a valid report must parse cleanly or
// error — no panics, no phantom success with corrupted tag data.
func TestUnmarshalTruncatedReport(t *testing.T) {
	payload, err := sampleReport().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(payload); cut++ {
		rep, err := UnmarshalROAccessReport(payload[:cut])
		if err != nil {
			continue
		}
		// A successful parse of a truncated prefix is only legal when
		// the cut fell exactly on a parameter boundary; then the report
		// must be internally consistent.
		for _, tr := range rep.Reports {
			if len(tr.EPC) == 0 {
				t.Fatalf("cut=%d: report with empty EPC accepted", cut)
			}
		}
	}
}

// Bit flips: single-bit corruptions must never panic; they may parse
// (the format has no checksum — TCP provides integrity) but dimensions
// must stay sane.
func TestUnmarshalBitFlips(t *testing.T) {
	payload, err := sampleReport().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(payload)*8; i++ {
		mut := append([]byte(nil), payload...)
		mut[i/8] ^= 1 << (i % 8)
		rep, err := UnmarshalROAccessReport(mut)
		if err != nil {
			continue
		}
		for _, tr := range rep.Reports {
			if len(tr.Rows(nil)) > maxSnapshotDim {
				t.Fatalf("bit %d: oversized snapshot accepted", i)
			}
		}
	}
}

func TestReaderCapabilitiesRoundTrip(t *testing.T) {
	c := &ReaderCapabilities{ReaderID: "reader-7", Antennas: 8, Model: "speedway-r420-sim"}
	got, err := UnmarshalReaderCapabilities(c.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.ReaderID != c.ReaderID || got.Antennas != 8 || got.Model != c.Model {
		t.Errorf("round trip: %+v", got)
	}
}
