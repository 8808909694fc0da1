// Package wal is the durable ingest log underneath the D-Watch
// daemons: a segmented, length-prefixed, CRC-checked write-ahead log
// for LLRP reports. Every accepted report is appended before dispatch
// into the pipeline, so a crash loses nothing the OS had accepted, and
// yesterday's traffic can be replayed at Nx real time against a new
// eigensolver or fusion config (internal/replay, cmd/dwatch-replay) —
// the recorded-corpus evaluation loop the paper's authors ran against
// logged LLRP traffic.
//
// Design points, in order:
//
//   - Torn-tail tolerance: every record is framed len|crc32c|body, so
//     recovery truncates at the first byte it cannot validate instead
//     of failing. A kill -9 mid-append costs at most the record being
//     written (and with fsync=never/interval, what the OS had not yet
//     flushed on a machine crash).
//   - One write syscall per append: records are encoded into a reused
//     buffer and written whole. There is no user-space buffering, so a
//     process crash (as opposed to a machine crash) loses nothing
//     regardless of fsync policy.
//   - Segments: the log rotates by size (and optionally age) into
//     16-hex-digit, sequence-named files, so retention is file
//     deletion and replay can start anywhere.
//   - Explicit durability policy: fsync always (every append),
//     interval (a background flusher), or never (page cache only).
package wal

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"dwatch/internal/obs"
)

// FsyncPolicy selects when appends are forced to stable storage.
type FsyncPolicy int

const (
	// FsyncInterval syncs on a background ticker (default 1s): bounded
	// loss on machine crash, near-zero append overhead. The default.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways syncs after every append: zero loss, highest cost.
	FsyncAlways
	// FsyncNever leaves flushing to the OS: fastest, loses whatever the
	// page cache held on a machine crash (a process crash still loses
	// nothing — appends are unbuffered writes).
	FsyncNever
)

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

// ParseFsyncPolicy parses "always", "never", "interval", or
// "interval=DUR" (e.g. "interval=250ms"). The returned duration is
// zero unless the interval form carried one.
func ParseFsyncPolicy(s string) (FsyncPolicy, time.Duration, error) {
	switch s {
	case "always":
		return FsyncAlways, 0, nil
	case "never":
		return FsyncNever, 0, nil
	case "", "interval":
		return FsyncInterval, 0, nil
	}
	if rest, ok := strings.CutPrefix(s, "interval="); ok {
		d, err := time.ParseDuration(rest)
		if err != nil || d <= 0 {
			return 0, 0, fmt.Errorf("wal: bad fsync interval %q", rest)
		}
		return FsyncInterval, d, nil
	}
	return 0, 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval[=DUR], or never)", s)
}

// Retention bounds how much closed history the log keeps. Zero fields
// mean unlimited; the active segment is never deleted.
type Retention struct {
	// MaxSegments caps the total segment count.
	MaxSegments int
	// MaxBytes caps the total on-disk size.
	MaxBytes int64
	// MaxAge deletes closed segments whose last write is older.
	MaxAge time.Duration
}

// ParseRetention parses a comma-separated retention spec:
// "segments=16,bytes=2GiB,age=24h". Empty or "none" means unlimited.
func ParseRetention(s string) (Retention, error) {
	var r Retention
	if s == "" || s == "none" {
		return r, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return r, fmt.Errorf("wal: bad retention entry %q (want key=value)", part)
		}
		switch k {
		case "segments":
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return r, fmt.Errorf("wal: bad retention segments %q", v)
			}
			r.MaxSegments = n
		case "bytes":
			n, err := ParseBytes(v)
			if err != nil {
				return r, err
			}
			r.MaxBytes = n
		case "age":
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				return r, fmt.Errorf("wal: bad retention age %q", v)
			}
			r.MaxAge = d
		default:
			return r, fmt.Errorf("wal: unknown retention key %q (want segments, bytes, or age)", k)
		}
	}
	return r, nil
}

// ParseBytes parses a byte count with an optional KB/MB/GB or
// KiB/MiB/GiB suffix (both binary, case-insensitive): "64MiB" →
// 67108864.
func ParseBytes(s string) (int64, error) {
	t := strings.ToLower(strings.TrimSpace(s))
	mult := int64(1)
	for _, suf := range []struct {
		s string
		m int64
	}{{"gib", 1 << 30}, {"gb", 1 << 30}, {"mib", 1 << 20}, {"mb", 1 << 20}, {"kib", 1 << 10}, {"kb", 1 << 10}, {"b", 1}} {
		if strings.HasSuffix(t, suf.s) {
			t = strings.TrimSuffix(t, suf.s)
			mult = suf.m
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("wal: bad byte size %q", s)
	}
	return n * mult, nil
}

// options collects the Open knobs.
type options struct {
	fsync         FsyncPolicy
	fsyncInterval time.Duration
	segMaxBytes   int64
	segMaxAge     time.Duration
	retention     Retention
	reg           *obs.Registry
	logger        *slog.Logger
	now           func() time.Time
}

// Option configures Open.
type Option func(*options)

// WithFsync selects the durability policy.
func WithFsync(p FsyncPolicy) Option { return func(o *options) { o.fsync = p } }

// WithFsyncInterval sets the background sync cadence for
// FsyncInterval (0 = 1s).
func WithFsyncInterval(d time.Duration) Option { return func(o *options) { o.fsyncInterval = d } }

// WithSegmentMaxBytes rotates segments at this size (0 = 64 MiB).
func WithSegmentMaxBytes(n int64) Option { return func(o *options) { o.segMaxBytes = n } }

// WithSegmentMaxAge rotates the active segment once it has been open
// this long, so retention-by-age has boundaries to delete at even
// under a trickle of traffic (0 = size-only rotation).
func WithSegmentMaxAge(d time.Duration) Option { return func(o *options) { o.segMaxAge = d } }

// WithRetention bounds the kept history.
func WithRetention(r Retention) Option { return func(o *options) { o.retention = r } }

// WithObs attaches the log to a metrics registry (dwatch_wal_*
// families). Nil disables instrumentation.
func WithObs(reg *obs.Registry) Option { return func(o *options) { o.reg = reg } }

// WithLogger attaches a structured logger for recovery, rotation, and
// retention events.
func WithLogger(l *slog.Logger) Option { return func(o *options) { o.logger = l } }

// withNow is the test seam for rotation-by-age and retention-by-age.
func withNow(now func() time.Time) Option { return func(o *options) { o.now = now } }

// segInfo tracks one closed segment for retention accounting.
type segInfo struct {
	name  string
	bytes int64
	// mtime is the segment's last write, the retention-by-age clock.
	mtime time.Time
}

// WAL is an open write-ahead log. All methods are safe for concurrent
// use.
type WAL struct {
	dir  string
	opts options

	mu         sync.Mutex
	f          *os.File
	active     string // active segment file name
	activeSize int64
	opened     time.Time // active segment open time (age rotation)
	closed     []segInfo // closed segments, oldest first
	nextSeq    uint64
	buf        []byte
	isClosed   bool

	// Recovery findings, fixed at Open.
	recovered      int
	truncatedBytes int64
	damage         *Damage

	// Counters mirrored into Status and (when attached) obs.
	appended   uint64
	appendedB  uint64
	syncs      uint64
	rotations  uint64
	deleted    uint64
	lastAppend time.Time

	stopSync chan struct{}
	syncWG   sync.WaitGroup

	ins *instruments
}

// Open opens (creating if needed) the WAL in dir and recovers it: all
// existing segments are scanned, a torn or corrupt tail in the final
// segment is truncated at the last valid record, and appending resumes
// with the next sequence number. Damage in a non-final segment is an
// error — that is disk rot, not a crash artifact, and silently
// dropping the segments after it would lose good data.
func Open(dir string, opts ...Option) (*WAL, error) {
	o := options{
		fsync:         FsyncInterval,
		fsyncInterval: time.Second,
		segMaxBytes:   64 << 20,
		now:           time.Now,
	}
	for _, opt := range opts {
		opt(&o)
	}
	if o.fsyncInterval <= 0 {
		o.fsyncInterval = time.Second
	}
	if o.segMaxBytes < segHeaderLen+recHeaderLen+recFixedLen {
		return nil, fmt.Errorf("wal: segment max bytes %d too small", o.segMaxBytes)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &WAL{dir: dir, opts: o, stopSync: make(chan struct{})}

	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	var lastSeq uint64
	for i, name := range segs {
		path := filepath.Join(dir, name)
		res, size, err := w.scanSegmentFile(path, name, lastSeq)
		if err != nil {
			return nil, err
		}
		w.recovered += res.records
		if res.records > 0 {
			lastSeq = res.lastSeq
		}
		if res.dmg != nil {
			if i != len(segs)-1 {
				return nil, fmt.Errorf("wal: segment %s damaged mid-log (%s); refusing to open — repair or remove it and every later segment", name, res.dmg)
			}
			// Torn tail of the final segment: truncate back to the last
			// valid record and carry on appending after it.
			if err := os.Truncate(path, res.goodOffset); err != nil {
				return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", name, err)
			}
			w.truncatedBytes += size - res.goodOffset
			w.damage = res.dmg
			size = res.goodOffset
			w.logf("wal: truncated torn tail", "segment", name, "offset", res.goodOffset, "reason", res.dmg.Reason)
		}
		st, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		w.closed = append(w.closed, segInfo{name: name, bytes: size, mtime: st.ModTime()})
	}
	w.nextSeq = lastSeq + 1

	// Resume the final segment when it still has room; otherwise start
	// a fresh one. A tail truncated all the way to (or before) its
	// header is rewritten in place.
	if n := len(w.closed); n > 0 && w.closed[n-1].bytes < o.segMaxBytes {
		last := w.closed[n-1]
		w.closed = w.closed[:n-1]
		if err := w.openActive(last.name, last.bytes); err != nil {
			return nil, err
		}
	} else if err := w.openActive(segmentName(w.nextSeq), 0); err != nil {
		return nil, err
	}

	if w.recovered > 0 || w.truncatedBytes > 0 {
		w.logf("wal: recovered", "records", w.recovered, "next_seq", w.nextSeq,
			"segments", len(w.closed)+1, "truncated_bytes", w.truncatedBytes)
	}
	w.ins = newInstruments(o.reg, w)

	if o.fsync == FsyncInterval {
		w.syncWG.Add(1)
		go w.syncLoop()
	}
	return w, nil
}

// scanResultInternal carries what Open needs from one segment scan.
type scanResultInternal struct {
	records    int
	lastSeq    uint64
	goodOffset int64
	dmg        *Damage
}

func (w *WAL) scanSegmentFile(path, name string, prevSeq uint64) (scanResultInternal, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return scanResultInternal{}, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return scanResultInternal{}, 0, err
	}
	sc, err := newSegmentScanner(name, f, prevSeq)
	if err != nil {
		return scanResultInternal{}, 0, err
	}
	for {
		rec, done, err := sc.next()
		if err != nil {
			return scanResultInternal{}, 0, err
		}
		if done {
			return scanResultInternal{
				records:    sc.records,
				lastSeq:    sc.prevSeq,
				goodOffset: sc.off,
				dmg:        sc.damage(),
			}, st.Size(), nil
		}
		_ = rec
	}
}

// openActive opens (or creates) the named segment for appending,
// writing the header when the file is new or was truncated below it.
func (w *WAL) openActive(name string, size int64) error {
	f, err := os.OpenFile(filepath.Join(w.dir, name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if size < segHeaderLen {
		// A brand-new segment, or a tail torn inside the header: the
		// file was truncated to `size` bytes, so O_APPEND lands the
		// missing header suffix exactly where it belongs.
		hdr := append([]byte(segMagic), segVersion)
		if _, err := f.Write(hdr[size:]); err != nil {
			f.Close()
			return err
		}
		size = segHeaderLen
	}
	w.f, w.active, w.activeSize = f, name, size
	w.opened = w.opts.now()
	return nil
}

// Append durably logs one message and returns its sequence number.
// The record is written with a single write syscall; under FsyncAlways
// it is also synced before Append returns.
func (w *WAL) Append(at time.Time, typ uint16, payload []byte) (uint64, error) {
	if len(payload) > MaxPayload {
		return 0, fmt.Errorf("wal: payload %d exceeds MaxPayload", len(payload))
	}
	start := w.opts.now()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.isClosed {
		return 0, errors.New("wal: closed")
	}
	recLen := encodedLen(payload)
	if w.activeSize+recLen > w.opts.segMaxBytes && w.activeSize > segHeaderLen {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	} else if w.opts.segMaxAge > 0 && w.activeSize > segHeaderLen &&
		w.opts.now().Sub(w.opened) >= w.opts.segMaxAge {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	seq := w.nextSeq
	w.buf = appendRecord(w.buf[:0], seq, at, typ, payload)
	if _, err := w.f.Write(w.buf); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	if w.opts.fsync == FsyncAlways {
		if err := w.f.Sync(); err != nil {
			return 0, fmt.Errorf("wal: fsync: %w", err)
		}
		w.syncs++
		w.ins.fsync()
	}
	w.nextSeq++
	w.activeSize += recLen
	w.appended++
	w.appendedB += uint64(recLen)
	w.lastAppend = w.opts.now()
	w.ins.append(w.opts.now().Sub(start), recLen)
	return seq, nil
}

// rotateLocked seals the active segment and opens the next one, then
// applies retention. Caller holds w.mu.
func (w *WAL) rotateLocked() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: rotate sync: %w", err)
	}
	w.syncs++
	w.ins.fsync()
	if err := w.f.Close(); err != nil {
		return err
	}
	sealed := w.active
	w.closed = append(w.closed, segInfo{name: sealed, bytes: w.activeSize, mtime: w.opts.now()})
	w.rotations++
	w.ins.rotate()
	if err := w.openActive(segmentName(w.nextSeq), 0); err != nil {
		return err
	}
	w.logf("wal: rotated segment", "sealed", sealed, "active", w.active, "closed_segments", len(w.closed))
	w.enforceRetentionLocked()
	return nil
}

// enforceRetentionLocked deletes the oldest closed segments until the
// retention bounds hold. Caller holds w.mu.
func (w *WAL) enforceRetentionLocked() {
	r := w.opts.retention
	if r.MaxSegments == 0 && r.MaxBytes == 0 && r.MaxAge == 0 {
		return
	}
	now := w.opts.now()
	for len(w.closed) > 0 {
		total := w.activeSize
		for _, s := range w.closed {
			total += s.bytes
		}
		oldest := w.closed[0]
		drop := (r.MaxSegments > 0 && len(w.closed)+1 > r.MaxSegments) ||
			(r.MaxBytes > 0 && total > r.MaxBytes) ||
			(r.MaxAge > 0 && now.Sub(oldest.mtime) > r.MaxAge)
		if !drop {
			return
		}
		if err := os.Remove(filepath.Join(w.dir, oldest.name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			w.logf("wal: retention delete failed", "segment", oldest.name, "error", err)
			return
		}
		w.closed = w.closed[1:]
		w.deleted++
		w.ins.retentionDelete()
		w.logf("wal: retention deleted segment", "segment", oldest.name)
	}
}

// Sync forces the active segment to stable storage regardless of
// policy.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.isClosed {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.syncs++
	w.ins.fsync()
	return nil
}

// syncLoop is the FsyncInterval background flusher.
func (w *WAL) syncLoop() {
	defer w.syncWG.Done()
	t := time.NewTicker(w.opts.fsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-w.stopSync:
			return
		case <-t.C:
			if err := w.Sync(); err != nil {
				w.logf("wal: interval fsync failed", "error", err)
			}
		}
	}
}

// Close syncs and closes the log. Further Appends fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.isClosed {
		w.mu.Unlock()
		return nil
	}
	w.isClosed = true
	close(w.stopSync)
	syncErr := w.f.Sync()
	if syncErr == nil {
		w.syncs++
		w.ins.fsync()
	}
	closeErr := w.f.Close()
	w.mu.Unlock()
	w.syncWG.Wait()
	w.ins.close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// Dir returns the log directory.
func (w *WAL) Dir() string { return w.dir }

// Status is the point-in-time WAL state served on /api/v1/wal.
type Status struct {
	Dir           string    `json:"dir"`
	Fsync         string    `json:"fsync"`
	Segments      int       `json:"segments"`
	ActiveSegment string    `json:"active_segment"`
	Bytes         int64     `json:"bytes"`
	NextSeq       uint64    `json:"next_seq"`
	Appended      uint64    `json:"appended_records"`
	AppendedBytes uint64    `json:"appended_bytes"`
	Fsyncs        uint64    `json:"fsyncs"`
	Rotations     uint64    `json:"rotations"`
	Deleted       uint64    `json:"retention_deleted_segments"`
	Recovered     int       `json:"recovered_records"`
	Truncated     int64     `json:"truncated_tail_bytes"`
	Damage        *Damage   `json:"damage,omitempty"`
	LastAppend    time.Time `json:"last_append,omitempty"`
}

// Status snapshots the log state.
func (w *WAL) Status() Status {
	w.mu.Lock()
	defer w.mu.Unlock()
	total := w.activeSize
	for _, s := range w.closed {
		total += s.bytes
	}
	return Status{
		Dir:           w.dir,
		Fsync:         w.opts.fsync.String(),
		Segments:      len(w.closed) + 1,
		ActiveSegment: w.active,
		Bytes:         total,
		NextSeq:       w.nextSeq,
		Appended:      w.appended,
		AppendedBytes: w.appendedB,
		Fsyncs:        w.syncs,
		Rotations:     w.rotations,
		Deleted:       w.deleted,
		Recovered:     w.recovered,
		Truncated:     w.truncatedBytes,
		Damage:        w.damage,
		LastAppend:    w.lastAppend,
	}
}

func (w *WAL) logf(msg string, args ...any) {
	if w.opts.logger != nil {
		w.opts.logger.Info(msg, args...)
	}
}
