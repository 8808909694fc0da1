package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Segment format. Each segment is one append-only file:
//
//	header:  magic "DWAL" | version u8                      (5 bytes)
//	records: len u32 | crc u32 | body                       (8 + len bytes)
//	body:    seq u64 | unix-micro i64 | msg type u16 | payload
//
// All integers are big-endian. len counts the body only (18 bytes of
// fixed fields plus the payload); crc is CRC-32C (Castagnoli) over the
// body. seq is assigned by the WAL and strictly increases across the
// whole log, which is how the recovery scanner distinguishes stale
// bytes from valid continuation after a rotation or truncation.
//
// The length/CRC pair in front of every record is what makes recovery
// torn-tail tolerant: a crash mid-write leaves either a short header, a
// short body, or a body whose CRC does not match — all three scan as a
// clean end-of-log at the last good record instead of an error.
const (
	segMagic   = "DWAL"
	segVersion = 1
	// segHeaderLen is the fixed segment file header.
	segHeaderLen = 5
	// recHeaderLen prefixes every record: len u32 + crc u32.
	recHeaderLen = 8
	// recFixedLen is the fixed part of a record body.
	recFixedLen = 8 + 8 + 2
	// MaxPayload bounds one record's payload — matches
	// llrp.MaxMessageLen so any accepted LLRP message fits.
	MaxPayload = 1 << 20
	// segSuffix names segment files: <first-seq hex16>.wal.
	segSuffix = ".wal"
)

// castagnoli is the CRC-32C table (the polynomial with hardware
// support on amd64/arm64, the conventional WAL checksum).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrBadSegment is returned when a file carries the .wal suffix but
// not the segment magic/version — a foreign file, not a torn one, so
// it is never silently truncated.
var ErrBadSegment = errors.New("wal: not a WAL segment")

// Record is one durably logged entry: a timestamped message with the
// WAL-assigned sequence number.
type Record struct {
	// Seq is the log-wide monotonic sequence number (1-based).
	Seq uint64
	// At is the capture timestamp (microsecond precision survives the
	// round trip); replay paces on the inter-record gaps.
	At time.Time
	// Type is the LLRP message type of the payload.
	Type uint16
	// Payload is the raw message payload.
	Payload []byte
}

// encodedLen is the on-disk size of a record with the given payload.
func encodedLen(payload []byte) int64 {
	return int64(recHeaderLen + recFixedLen + len(payload))
}

// appendRecord encodes one record onto buf and returns the extended
// slice — the single-allocation (amortized) append hot path.
func appendRecord(buf []byte, seq uint64, at time.Time, typ uint16, payload []byte) []byte {
	bodyLen := recFixedLen + len(payload)
	need := recHeaderLen + bodyLen
	if cap(buf)-len(buf) < need {
		grown := make([]byte, len(buf), len(buf)+need)
		copy(grown, buf)
		buf = grown
	}
	base := len(buf)
	buf = buf[:base+need]
	body := buf[base+recHeaderLen:]
	binary.BigEndian.PutUint64(body[0:8], seq)
	binary.BigEndian.PutUint64(body[8:16], uint64(at.UnixMicro()))
	binary.BigEndian.PutUint16(body[16:18], typ)
	copy(body[recFixedLen:], payload)
	binary.BigEndian.PutUint32(buf[base:base+4], uint32(bodyLen))
	binary.BigEndian.PutUint32(buf[base+4:base+8], crc32.Checksum(body, castagnoli))
	return buf
}

// segmentName renders the file name for a segment created at seq.
func segmentName(seq uint64) string {
	return fmt.Sprintf("%016x%s", seq, segSuffix)
}

// listSegments returns the segment file names in dir in log order
// (names embed the creation-time sequence number, so lexicographic is
// chronological).
func listSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		hexPart := strings.TrimSuffix(name, segSuffix)
		if len(hexPart) != 16 || !isHex(hexPart) {
			continue
		}
		segs = append(segs, name)
	}
	sort.Strings(segs)
	return segs, nil
}

func isHex(s string) bool {
	for _, r := range s {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return false
		}
	}
	return true
}

// Damage pinpoints where a scan stopped before the end of the data:
// the segment, the byte offset of the first unreadable record, and
// why. A torn tail after a crash and a flipped bit mid-segment both
// surface here; recovery decides what to do with it (Open truncates a
// damaged final segment, OpenReader stops cleanly and reports).
type Damage struct {
	Segment string `json:"segment"`
	Offset  int64  `json:"offset"`
	Reason  string `json:"reason"`
}

func (d *Damage) String() string {
	return fmt.Sprintf("%s at offset %d: %s", d.Segment, d.Offset, d.Reason)
}

// segmentScanner iterates one segment's records, tolerating a torn or
// corrupt tail: next returns done=true at the first byte it cannot
// validate, and damage() reports whether that end was clean EOF or
// damage (and where).
type segmentScanner struct {
	name    string
	r       *bufio.Reader
	off     int64 // offset just past the last good record
	records int
	prevSeq uint64 // last accepted seq (0 = none yet)
	dmg     *Damage

	hdr   [recHeaderLen]byte
	fixed [recFixedLen]byte
}

// newSegmentScanner validates the segment header. A completely empty
// file is treated as damage at offset 0 (a crash between create and
// header write), not an error; a wrong magic or version is
// ErrBadSegment.
func newSegmentScanner(name string, r io.Reader, prevSeq uint64) (*segmentScanner, error) {
	s := &segmentScanner{name: name, r: bufio.NewReaderSize(r, 64<<10), prevSeq: prevSeq}
	var hdr [segHeaderLen]byte
	n, err := io.ReadFull(s.r, hdr[:])
	if err != nil {
		if n == 0 && errors.Is(err, io.EOF) {
			s.dmg = &Damage{Segment: name, Offset: 0, Reason: "empty segment (no header)"}
			return s, nil
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			s.dmg = &Damage{Segment: name, Offset: 0, Reason: "torn segment header"}
			return s, nil
		}
		return nil, err
	}
	if string(hdr[:4]) != segMagic {
		return nil, fmt.Errorf("%w: %s: bad magic %q", ErrBadSegment, name, hdr[:4])
	}
	if hdr[4] != segVersion {
		return nil, fmt.Errorf("%w: %s: version %d (want %d)", ErrBadSegment, name, hdr[4], segVersion)
	}
	s.off = segHeaderLen
	return s, nil
}

// next returns the next valid record. done=true means the scan is
// over — either clean EOF or damage; check damage(). The record's
// fixed fields are read into scanner scratch and its payload straight
// into a fresh buffer of exactly its length, the one user-space copy a
// record costs; the CRC runs over both parts in turn. The returned
// Payload is that buffer: it shares memory with nothing else and is
// safe to retain.
func (s *segmentScanner) next() (rec Record, done bool, err error) {
	if s.dmg != nil {
		return Record{}, true, nil
	}
	n, rerr := io.ReadFull(s.r, s.hdr[:])
	if rerr != nil {
		if n == 0 && errors.Is(rerr, io.EOF) {
			return Record{}, true, nil // clean end
		}
		if errors.Is(rerr, io.EOF) || errors.Is(rerr, io.ErrUnexpectedEOF) {
			s.fail("torn record header")
			return Record{}, true, nil
		}
		return Record{}, true, rerr
	}
	bodyLen := binary.BigEndian.Uint32(s.hdr[0:4])
	if bodyLen < recFixedLen || bodyLen > recFixedLen+MaxPayload {
		s.fail(fmt.Sprintf("bad record length %d", bodyLen))
		return Record{}, true, nil
	}
	payload := make([]byte, bodyLen-recFixedLen)
	for _, part := range [][]byte{s.fixed[:], payload} {
		if _, rerr := io.ReadFull(s.r, part); rerr != nil {
			if errors.Is(rerr, io.EOF) || errors.Is(rerr, io.ErrUnexpectedEOF) {
				s.fail("torn record body")
				return Record{}, true, nil
			}
			return Record{}, true, rerr
		}
	}
	crc := crc32.Update(crc32.Update(0, castagnoli, s.fixed[:]), castagnoli, payload)
	if want := binary.BigEndian.Uint32(s.hdr[4:8]); crc != want {
		s.fail(fmt.Sprintf("crc mismatch (got %08x want %08x)", crc, want))
		return Record{}, true, nil
	}
	seq := binary.BigEndian.Uint64(s.fixed[0:8])
	if seq <= s.prevSeq {
		s.fail(fmt.Sprintf("sequence regression (%d after %d)", seq, s.prevSeq))
		return Record{}, true, nil
	}
	rec = Record{
		Seq:     seq,
		At:      time.UnixMicro(int64(binary.BigEndian.Uint64(s.fixed[8:16]))),
		Type:    binary.BigEndian.Uint16(s.fixed[16:18]),
		Payload: payload,
	}
	s.prevSeq = seq
	s.off += int64(recHeaderLen) + int64(bodyLen)
	s.records++
	return rec, false, nil
}

func (s *segmentScanner) fail(reason string) {
	s.dmg = &Damage{Segment: s.name, Offset: s.off, Reason: reason}
}

// damage reports why the scan ended early (nil = clean end).
func (s *segmentScanner) damage() *Damage { return s.dmg }

// Reader streams every valid record in a WAL directory in log order,
// stopping cleanly at the first record it cannot validate (torn tail
// after a crash, or real corruption). After Next returns io.EOF,
// Records counts what was read and Damage is non-nil when the stop was
// early. Reading a directory that is concurrently being appended to is
// safe: the scanner simply sees a prefix of the log.
type Reader struct {
	dir     string
	segs    []string
	idx     int
	f       *os.File
	sc      *segmentScanner
	prevSeq uint64
	records int
	dmg     *Damage
}

// OpenReader opens a WAL directory for sequential reading. A missing
// or empty directory yields a reader that is immediately at EOF.
func OpenReader(dir string) (*Reader, error) {
	segs, err := listSegments(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return &Reader{dir: dir}, nil
		}
		return nil, err
	}
	return &Reader{dir: dir, segs: segs}, nil
}

// Next returns the next record, or io.EOF at the end of the readable
// log. Any other error is an I/O failure.
func (r *Reader) Next() (Record, error) {
	for {
		if r.sc == nil {
			if r.idx >= len(r.segs) {
				return Record{}, io.EOF
			}
			name := r.segs[r.idx]
			f, err := os.Open(filepath.Join(r.dir, name))
			if err != nil {
				return Record{}, err
			}
			sc, err := newSegmentScanner(name, f, r.prevSeq)
			if err != nil {
				f.Close()
				return Record{}, err
			}
			r.f, r.sc = f, sc
			r.idx++
		}
		rec, done, err := r.sc.next()
		if err != nil {
			return Record{}, err
		}
		if !done {
			r.prevSeq = rec.Seq
			r.records++
			return rec, nil
		}
		dmg := r.sc.damage()
		r.f.Close()
		r.f, r.sc = nil, nil
		if dmg != nil {
			// Stop at the first damaged record: anything after it (in
			// this segment or later ones) cannot be trusted to be a
			// contiguous continuation of the log.
			r.dmg = dmg
			r.idx = len(r.segs)
			return Record{}, io.EOF
		}
	}
}

// Records counts the valid records returned so far.
func (r *Reader) Records() int { return r.records }

// Damage reports why reading stopped early (nil = clean end so far).
func (r *Reader) Damage() *Damage { return r.dmg }

// Close releases the currently open segment, if any.
func (r *Reader) Close() error {
	if r.f != nil {
		err := r.f.Close()
		r.f, r.sc = nil, nil
		return err
	}
	return nil
}

// ScanResult summarizes one pass over a WAL directory.
type ScanResult struct {
	// Records is how many valid records were visited.
	Records int
	// Segments is how many segment files exist.
	Segments int
	// LastSeq is the sequence number of the final valid record (0 when
	// the log is empty).
	LastSeq uint64
	// Damage is non-nil when the scan stopped before the end of the
	// data — the count above is then "records before the damage".
	Damage *Damage
}

// Scan visits every valid record in dir in order. Damage stops the
// scan cleanly (reported in the result, not as an error); an error
// from fn or the filesystem aborts it.
func Scan(dir string, fn func(Record) error) (ScanResult, error) {
	r, err := OpenReader(dir)
	if err != nil {
		return ScanResult{}, err
	}
	defer r.Close()
	res := ScanResult{Segments: len(r.segs)}
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			res.Records = r.Records()
			res.LastSeq = r.prevSeq
			res.Damage = r.Damage()
			return res, nil
		}
		if err != nil {
			return res, err
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return res, err
			}
		}
	}
}
