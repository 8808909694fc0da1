package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// FuzzSegmentScanner feeds arbitrary bytes to the recovery scanner as
// a segment file. Whatever is on disk after a crash — torn frames,
// bit rot, garbage lengths, hostile CRC-valid forgeries — the scanner
// must classify it (records, damage, or bad segment) without panicking
// and without accepting a record it cannot prove whole. Every accepted
// payload must stand alone (its own buffer, exactly its length), and
// Open's recovery must replay exactly the records Scan accepted.
func FuzzSegmentScanner(f *testing.F) {
	// Seed the corpus with the interesting shapes: a clean segment, a
	// bare header, truncations at every boundary of a real record, and
	// near-miss corruptions.
	valid := append([]byte(segMagic), segVersion)
	valid = appendRecord(valid, 1, time.UnixMicro(1_700_000_000_000_000), 61, []byte("payload-one"))
	valid = appendRecord(valid, 2, time.UnixMicro(1_700_000_000_100_000), 61, []byte("payload-two"))

	f.Add([]byte{})
	f.Add([]byte(segMagic))
	f.Add(append([]byte(segMagic), segVersion))
	f.Add(append([]byte(segMagic), segVersion+1))
	f.Add([]byte("DWRLx")) // legacy magic, not a segment
	f.Add(valid)
	f.Add(valid[:len(valid)-1])              // torn body
	f.Add(valid[:segHeaderLen+recHeaderLen]) // header, then torn record header
	f.Add(valid[:segHeaderLen+3])
	huge := append([]byte(segMagic), segVersion, 0xff, 0xff, 0xff, 0xff) // absurd length
	f.Add(append(huge, 0, 0, 0, 0))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-3] ^= 0x40 // CRC mismatch in final record
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}

		var scanned []Record
		res, err := Scan(dir, func(rec Record) error {
			scanned = append(scanned, rec)
			return nil
		})
		if err != nil {
			return // bad magic/version: hard error is a valid outcome
		}
		if res.Records != len(scanned) {
			t.Fatalf("result says %d records, callback saw %d", res.Records, len(scanned))
		}
		// Every accepted record must satisfy the format invariants.
		prev := uint64(0)
		for _, rec := range scanned {
			if rec.Seq <= prev {
				t.Fatalf("non-monotonic seq %d after %d", rec.Seq, prev)
			}
			prev = rec.Seq
			if len(rec.Payload) > MaxPayload {
				t.Fatalf("oversized payload %d accepted", len(rec.Payload))
			}
		}
		if res.LastSeq != prev {
			t.Fatalf("LastSeq %d, want %d", res.LastSeq, prev)
		}
		// Each payload is its own buffer: no spare capacity to append
		// into, and overwriting one leaves every other unchanged.
		saved := make([][]byte, len(scanned))
		for i, rec := range scanned {
			if cap(rec.Payload) != len(rec.Payload) {
				t.Fatalf("record %d payload cap %d, len %d", i, cap(rec.Payload), len(rec.Payload))
			}
			saved[i] = append([]byte(nil), rec.Payload...)
		}
		for i, rec := range scanned {
			for k := range rec.Payload {
				rec.Payload[k] ^= 0xff
			}
			for j, other := range scanned {
				if j != i && !bytes.Equal(other.Payload, saved[j]) {
					t.Fatalf("overwriting record %d's payload changed record %d's", i, j)
				}
			}
			copy(rec.Payload, saved[i])
		}
		if res.Damage != nil {
			if res.Damage.Reason == "" {
				t.Fatal("damage with empty reason")
			}
			if res.Damage.Offset < 0 || res.Damage.Offset > int64(len(data)) {
				t.Fatalf("damage offset %d outside segment of %d bytes", res.Damage.Offset, len(data))
			}
		}

		// The Reader view must agree with Scan record for record.
		r, err := OpenReader(dir)
		if err != nil {
			t.Fatalf("Scan succeeded but OpenReader failed: %v", err)
		}
		defer r.Close()
		n := 0
		for {
			rec, err := r.Next()
			if err != nil {
				break
			}
			if rec.Seq != scanned[n].Seq {
				t.Fatalf("reader record %d seq %d, scan saw %d", n, rec.Seq, scanned[n].Seq)
			}
			n++
		}
		if n != len(scanned) {
			t.Fatalf("reader yielded %d records, scan yielded %d", n, len(scanned))
		}

		// And recovery must accept whatever the scanner classified,
		// replaying the same records: Open truncates the tail and
		// leaves an appendable log.
		var replayed []Record
		w, err := Open(dir, WithFsync(FsyncNever), WithReplay(func(rec Record) error {
			replayed = append(replayed, rec)
			return nil
		}))
		if err != nil {
			t.Fatalf("Scan succeeded but Open failed: %v", err)
		}
		defer w.Close()
		if len(replayed) != len(scanned) {
			t.Fatalf("open replayed %d records, scan accepted %d", len(replayed), len(scanned))
		}
		for i, rec := range replayed {
			want := scanned[i]
			if rec.Seq != want.Seq || rec.Type != want.Type || !rec.At.Equal(want.At) || !bytes.Equal(rec.Payload, want.Payload) {
				t.Fatalf("replayed record %d differs from scanned record", i)
			}
		}
		if _, err := w.Append(time.Now(), 61, []byte("post-recovery")); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		res2, err := Scan(dir, nil)
		if err != nil {
			t.Fatalf("scan after recovery: %v", err)
		}
		if res2.Records != len(scanned)+1 || res2.Damage != nil {
			t.Fatalf("after recovery+append: %d records (want %d), damage %v",
				res2.Records, len(scanned)+1, res2.Damage)
		}
	})
}
