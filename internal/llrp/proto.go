// Package llrp implements the LLRP-style binary protocol D-Watch uses
// between its readers and the localization server (Section 5: "the
// server communicates with the RFID readers using low level reader
// protocol (LLRP)"; tag backscatter packets are forwarded over Ethernet).
//
// The wire format follows LLRP's framing: a 10-byte message header
// (3-bit version + 13-bit type packed big-endian, a 32-bit total length
// and a 32-bit message ID) followed by TLV parameters. Beyond the
// standard inventory-report plumbing, reports carry a vendor-extension
// parameter with the per-antenna I/Q snapshot matrix — the quantity the
// AoA pipeline actually consumes (COTS Impinj readers expose per-read RF
// phase the same way, via a vendor extension).
package llrp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Protocol version.
const Version = 1

// Message types (aligned with LLRP where a counterpart exists).
const (
	MsgGetReaderCapabilities         = 1
	MsgGetReaderCapabilitiesResponse = 11
	MsgCloseConnection               = 14
	MsgCloseConnectionResponse       = 4
	MsgStartROSpec                   = 22
	MsgStartROSpecResponse           = 32
	MsgStopROSpec                    = 23
	MsgStopROSpecResponse            = 33
	MsgROAccessReport                = 61
	MsgKeepalive                     = 62
	MsgReaderEventNotification       = 63
	MsgKeepaliveAck                  = 72
	MsgError                         = 100
)

// Parameter types.
const (
	ParamTagReportData  = 240
	ParamEPCData        = 241
	ParamAntennaID      = 222
	ParamPeakRSSI       = 224
	ParamReaderID       = 1000
	ParamSequence       = 1001 // acquisition-round sequence number
	ParamSnapshotMatrix = 1023 // vendor extension: per-antenna I/Q samples
	ParamEventText      = 1010
)

// Limits protect against malformed or hostile frames.
const (
	HeaderLen      = 10
	MaxMessageLen  = 1 << 20 // 1 MiB
	maxEPCLen      = 62
	maxSnapshotDim = 4096
)

// Wire-format errors.
var (
	ErrTooLarge   = errors.New("llrp: message exceeds MaxMessageLen")
	ErrBadHeader  = errors.New("llrp: malformed header")
	ErrBadParam   = errors.New("llrp: malformed parameter")
	ErrBadVersion = errors.New("llrp: unsupported version")
)

// Message is a raw protocol message.
type Message struct {
	Type    uint16
	ID      uint32
	Payload []byte
}

// MarshalHeader renders the 10-byte header for a payload of the given
// length.
func MarshalHeader(typ uint16, id uint32, payloadLen int) ([]byte, error) {
	total := HeaderLen + payloadLen
	if total > MaxMessageLen {
		return nil, ErrTooLarge
	}
	h := make([]byte, HeaderLen)
	binary.BigEndian.PutUint16(h[0:2], uint16(Version)<<13|typ&0x1FFF)
	binary.BigEndian.PutUint32(h[2:6], uint32(total))
	binary.BigEndian.PutUint32(h[6:10], id)
	return h, nil
}

// ParseHeader decodes a header and returns type, id and total length.
func ParseHeader(h []byte) (typ uint16, id uint32, total int, err error) {
	if len(h) < HeaderLen {
		return 0, 0, 0, ErrBadHeader
	}
	vt := binary.BigEndian.Uint16(h[0:2])
	if vt>>13 != Version {
		return 0, 0, 0, fmt.Errorf("%w: got %d", ErrBadVersion, vt>>13)
	}
	typ = vt & 0x1FFF
	total = int(binary.BigEndian.Uint32(h[2:6]))
	id = binary.BigEndian.Uint32(h[6:10])
	if total < HeaderLen || total > MaxMessageLen {
		return 0, 0, 0, fmt.Errorf("%w: length %d", ErrBadHeader, total)
	}
	return typ, id, total, nil
}

// appendParam appends a TLV parameter (2-byte type, 2-byte length
// including the 4-byte TLV header, then the value).
func appendParam(dst []byte, typ uint16, val []byte) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint16(hdr[0:2], typ&0x3FF)
	binary.BigEndian.PutUint16(hdr[2:4], uint16(4+len(val)))
	dst = append(dst, hdr[:]...)
	return append(dst, val...)
}

// walkParams iterates the TLV parameters of a payload.
func walkParams(payload []byte, fn func(typ uint16, val []byte) error) error {
	for len(payload) > 0 {
		if len(payload) < 4 {
			return fmt.Errorf("%w: trailing %d bytes", ErrBadParam, len(payload))
		}
		typ := binary.BigEndian.Uint16(payload[0:2]) & 0x3FF
		l := int(binary.BigEndian.Uint16(payload[2:4]))
		if l < 4 || l > len(payload) {
			return fmt.Errorf("%w: parameter length %d of %d", ErrBadParam, l, len(payload))
		}
		if err := fn(typ, payload[4:l]); err != nil {
			return err
		}
		payload = payload[l:]
	}
	return nil
}

// TagReport is one tag's report within an RO_ACCESS_REPORT.
type TagReport struct {
	EPC          []byte
	AntennaID    uint16
	PeakRSSIcdBm int16 // centi-dBm
	// Snapshot is the N×M per-antenna I/Q sample matrix (rows =
	// snapshots, cols = antennas), the vendor-extension payload AoA
	// processing consumes, of a report built in memory. A decoded
	// report leaves it nil and keeps the validated wire samples
	// instead; Rows reads either.
	Snapshot [][]complex128
	// wire is a decoded report's snapshot parameter value (dims and
	// float32 samples), validated and aliasing the decoded payload.
	// When set, Rows and Marshal read it instead of Snapshot.
	wire []byte
}

// SnapshotBuf is caller-owned scratch that TagReport.Rows decodes wire
// samples into. The zero value is ready; it grows to the largest
// snapshot decoded into it and is reused after. Not safe for
// concurrent use.
type SnapshotBuf struct {
	samples []complex128
	rows    [][]complex128
}

// Rows returns the tag's snapshot rows. A report built in memory
// returns its Snapshot. A decoded report decodes its wire samples into
// buf — float32 to float64, which is exact — and the rows are valid
// until buf's next use; with a nil buf they are freshly allocated and
// the caller's to keep. Decoded rows are rectangular, with the dims
// the wire header declares.
func (tr *TagReport) Rows(buf *SnapshotBuf) [][]complex128 {
	if tr.wire == nil {
		return tr.Snapshot
	}
	if buf == nil {
		buf = new(SnapshotBuf)
	}
	rows := int(binary.BigEndian.Uint16(tr.wire[0:2]))
	cols := int(binary.BigEndian.Uint16(tr.wire[2:4]))
	n := rows * cols
	if cap(buf.samples) < n {
		buf.samples = make([]complex128, n)
	}
	if cap(buf.rows) < rows {
		buf.rows = make([][]complex128, rows)
	}
	samples, out := buf.samples[:n], buf.rows[:rows]
	v := tr.wire[4 : 4+8*n]
	for i := range samples {
		re := math.Float32frombits(binary.BigEndian.Uint32(v[8*i:]))
		im := math.Float32frombits(binary.BigEndian.Uint32(v[8*i+4:]))
		samples[i] = complex(float64(re), float64(im))
	}
	for r := range out {
		out[r] = samples[r*cols : (r+1)*cols : (r+1)*cols]
	}
	return out
}

// ROAccessReport is the inventory report message.
type ROAccessReport struct {
	ReaderID string
	// Seq is the acquisition-round sequence number; a localization
	// server correlates evidence across readers by it (real LLRP
	// reports carry µs timestamps for the same purpose).
	Seq     uint32
	Reports []TagReport
}

// Marshal renders the report into a message payload. A decoded tag's
// snapshot is written back verbatim from its kept wire bytes.
func (r *ROAccessReport) Marshal() ([]byte, error) {
	var payload []byte
	payload = appendParam(payload, ParamReaderID, []byte(r.ReaderID))
	var seq [4]byte
	binary.BigEndian.PutUint32(seq[:], r.Seq)
	payload = appendParam(payload, ParamSequence, seq[:])
	for i := range r.Reports {
		tr := &r.Reports[i]
		if len(tr.EPC) == 0 || len(tr.EPC) > maxEPCLen {
			return nil, fmt.Errorf("%w: EPC length %d", ErrBadParam, len(tr.EPC))
		}
		var inner []byte
		inner = appendParam(inner, ParamEPCData, tr.EPC)
		var ant [2]byte
		binary.BigEndian.PutUint16(ant[:], tr.AntennaID)
		inner = appendParam(inner, ParamAntennaID, ant[:])
		var rssi [2]byte
		binary.BigEndian.PutUint16(rssi[:], uint16(tr.PeakRSSIcdBm))
		inner = appendParam(inner, ParamPeakRSSI, rssi[:])
		snap := tr.wire
		if snap == nil {
			var err error
			if snap, err = marshalSnapshot(tr.Snapshot); err != nil {
				return nil, err
			}
		}
		inner = appendParam(inner, ParamSnapshotMatrix, snap)
		payload = appendParam(payload, ParamTagReportData, inner)
	}
	return payload, nil
}

// UnmarshalROAccessReport parses an RO_ACCESS_REPORT payload. Every
// parameter is validated, snapshot dims and byte counts included, so a
// malformed report is refused whole. Snapshot samples are not
// materialized: each TagReport keeps its validated snapshot bytes,
// which alias payload, and decodes them on demand (TagReport.Rows). The
// caller must therefore not reuse or modify payload while the report
// is in use — hand over a buffer of its own, as Conn.Recv and the WAL
// scanner do (each returns a fresh one per message).
func UnmarshalROAccessReport(payload []byte) (*ROAccessReport, error) {
	out := &ROAccessReport{}
	err := walkParams(payload, func(typ uint16, val []byte) error {
		switch typ {
		case ParamReaderID:
			out.ReaderID = string(val)
		case ParamSequence:
			if len(val) != 4 {
				return fmt.Errorf("%w: sequence length %d", ErrBadParam, len(val))
			}
			out.Seq = binary.BigEndian.Uint32(val)
		case ParamTagReportData:
			tr := TagReport{}
			if err := walkParams(val, func(t uint16, v []byte) error {
				switch t {
				case ParamEPCData:
					tr.EPC = append([]byte(nil), v...)
				case ParamAntennaID:
					if len(v) != 2 {
						return fmt.Errorf("%w: antenna id length %d", ErrBadParam, len(v))
					}
					tr.AntennaID = binary.BigEndian.Uint16(v)
				case ParamPeakRSSI:
					if len(v) != 2 {
						return fmt.Errorf("%w: rssi length %d", ErrBadParam, len(v))
					}
					tr.PeakRSSIcdBm = int16(binary.BigEndian.Uint16(v))
				case ParamSnapshotMatrix:
					if err := checkSnapshot(v); err != nil {
						return err
					}
					tr.wire = v
				}
				return nil // unknown inner params are skipped
			}); err != nil {
				return err
			}
			if len(tr.EPC) == 0 {
				return fmt.Errorf("%w: tag report without EPC", ErrBadParam)
			}
			out.Reports = append(out.Reports, tr)
		}
		return nil // unknown outer params are skipped
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// marshalSnapshot encodes rows×cols float32 I/Q pairs:
// uint16 rows, uint16 cols, then rows*cols*(4+4) bytes.
func marshalSnapshot(s [][]complex128) ([]byte, error) {
	rows := len(s)
	cols := 0
	if rows > 0 {
		cols = len(s[0])
	}
	if rows > maxSnapshotDim || cols > maxSnapshotDim {
		return nil, fmt.Errorf("%w: snapshot %dx%d too large", ErrBadParam, rows, cols)
	}
	out := make([]byte, 4, 4+rows*cols*8)
	binary.BigEndian.PutUint16(out[0:2], uint16(rows))
	binary.BigEndian.PutUint16(out[2:4], uint16(cols))
	for _, row := range s {
		if len(row) != cols {
			return nil, fmt.Errorf("%w: ragged snapshot", ErrBadParam)
		}
		for _, c := range row {
			var b [8]byte
			binary.BigEndian.PutUint32(b[0:4], math.Float32bits(float32(real(c))))
			binary.BigEndian.PutUint32(b[4:8], math.Float32bits(float32(imag(c))))
			out = append(out, b[:]...)
		}
	}
	return out, nil
}

// checkSnapshot validates an encoded snapshot: its dims, that the
// byte count matches them exactly, and that it is not degenerate (one
// dim zero, the other not).
func checkSnapshot(v []byte) error {
	if len(v) < 4 {
		return fmt.Errorf("%w: snapshot header", ErrBadParam)
	}
	rows := int(binary.BigEndian.Uint16(v[0:2]))
	cols := int(binary.BigEndian.Uint16(v[2:4]))
	if rows > maxSnapshotDim || cols > maxSnapshotDim {
		return fmt.Errorf("%w: snapshot %dx%d too large", ErrBadParam, rows, cols)
	}
	if len(v) != 4+rows*cols*8 {
		return fmt.Errorf("%w: snapshot payload %d for %dx%d", ErrBadParam, len(v), rows, cols)
	}
	if rows > 0 && cols == 0 || rows == 0 && cols > 0 {
		return fmt.Errorf("%w: degenerate snapshot %dx%d", ErrBadParam, rows, cols)
	}
	return nil
}

// ReaderCapabilities is a GET_READER_CAPABILITIES_RESPONSE payload:
// what the server needs to know to process a reader's reports.
type ReaderCapabilities struct {
	ReaderID string
	Antennas uint16
	Model    string
}

// Capability parameter types.
const (
	ParamAntennaCount = 1002
	ParamModelName    = 1003
)

// Marshal renders the capabilities.
func (c *ReaderCapabilities) Marshal() []byte {
	var payload []byte
	payload = appendParam(payload, ParamReaderID, []byte(c.ReaderID))
	var ant [2]byte
	binary.BigEndian.PutUint16(ant[:], c.Antennas)
	payload = appendParam(payload, ParamAntennaCount, ant[:])
	payload = appendParam(payload, ParamModelName, []byte(c.Model))
	return payload
}

// UnmarshalReaderCapabilities parses a capabilities payload.
func UnmarshalReaderCapabilities(payload []byte) (*ReaderCapabilities, error) {
	out := &ReaderCapabilities{}
	err := walkParams(payload, func(typ uint16, val []byte) error {
		switch typ {
		case ParamReaderID:
			out.ReaderID = string(val)
		case ParamAntennaCount:
			if len(val) != 2 {
				return fmt.Errorf("%w: antenna count length %d", ErrBadParam, len(val))
			}
			out.Antennas = binary.BigEndian.Uint16(val)
		case ParamModelName:
			out.Model = string(val)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ReaderEvent is a READER_EVENT_NOTIFICATION payload.
type ReaderEvent struct {
	Text string
}

// Marshal renders the event.
func (e *ReaderEvent) Marshal() []byte {
	return appendParam(nil, ParamEventText, []byte(e.Text))
}

// UnmarshalReaderEvent parses a READER_EVENT_NOTIFICATION payload.
func UnmarshalReaderEvent(payload []byte) (*ReaderEvent, error) {
	out := &ReaderEvent{}
	err := walkParams(payload, func(typ uint16, val []byte) error {
		if typ == ParamEventText {
			out.Text = string(val)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ROSpec is the reader-operation specification: the control-plane
// object an LLRP client installs on a reader to command what to
// inventory and how often to report. The simulation carries the three
// fields D-Watch needs.
type ROSpec struct {
	ID uint32
	// PeriodMs is the acquisition period in milliseconds (the paper's
	// 0.1 s transmission interval).
	PeriodMs uint32
	// SnapshotsPerTag is how many coherent snapshots each report should
	// carry per tag (the paper collects ~10 packets per tag).
	SnapshotsPerTag uint16
}

// ROSpec parameter types.
const (
	ParamROSpecID        = 1004
	ParamROSpecPeriod    = 1005
	ParamROSpecSnapshots = 1006
)

// Marshal renders the ROSpec.
func (r *ROSpec) Marshal() []byte {
	var payload []byte
	var id [4]byte
	binary.BigEndian.PutUint32(id[:], r.ID)
	payload = appendParam(payload, ParamROSpecID, id[:])
	var period [4]byte
	binary.BigEndian.PutUint32(period[:], r.PeriodMs)
	payload = appendParam(payload, ParamROSpecPeriod, period[:])
	var snaps [2]byte
	binary.BigEndian.PutUint16(snaps[:], r.SnapshotsPerTag)
	payload = appendParam(payload, ParamROSpecSnapshots, snaps[:])
	return payload
}

// UnmarshalROSpec parses an ROSpec payload.
func UnmarshalROSpec(payload []byte) (*ROSpec, error) {
	out := &ROSpec{}
	err := walkParams(payload, func(typ uint16, val []byte) error {
		switch typ {
		case ParamROSpecID:
			if len(val) != 4 {
				return fmt.Errorf("%w: rospec id length %d", ErrBadParam, len(val))
			}
			out.ID = binary.BigEndian.Uint32(val)
		case ParamROSpecPeriod:
			if len(val) != 4 {
				return fmt.Errorf("%w: rospec period length %d", ErrBadParam, len(val))
			}
			out.PeriodMs = binary.BigEndian.Uint32(val)
		case ParamROSpecSnapshots:
			if len(val) != 2 {
				return fmt.Errorf("%w: rospec snapshots length %d", ErrBadParam, len(val))
			}
			out.SnapshotsPerTag = binary.BigEndian.Uint16(val)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
