package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"
	"sync"
	"time"

	"quorumselect/internal/metrics"
)

// Store is a recovered, writable durable log: the WAL plus its newest
// snapshot. Open performs recovery; afterwards Append/Sync/
// WriteSnapshot/Close are safe for concurrent use (the host appends
// from its event loop while Stop may race in from a signal handler or
// transport close).
type Store struct {
	mu   sync.Mutex
	b    Backend
	o    Options
	fail error // first fatal I/O error, sticky

	cur     File // current segment, nil until the first post-open append
	curSize int
	pending int // records appended since the last fsync

	nextIndex uint64 // logical index of the next record to append
	snapIndex uint64 // walIndex of the newest durable snapshot

	recSnapshot []byte
	recRecords  [][]byte

	closed bool
	buf    []byte // frame scratch, reused across appends

	m storeMetrics
}

// storeMetrics are the series every Append and Sync writes, resolved at
// Open; recovery, rotation and snapshots stay name-keyed.
type storeMetrics struct {
	appends, appendBytes, fsyncs *metrics.CounterHandle
	batchSize, fsyncLatency      *metrics.HistHandle
}

// Open recovers durable state from the backend and returns a Store
// positioned to append after the last valid record. Recovery picks the
// newest CRC-valid snapshot (falling back to older ones, then to none),
// replays every WAL segment in index order, stops at the first torn or
// corrupt frame, and physically truncates the log there so the next
// recovery sees a clean tail.
func Open(b Backend, o Options) (*Store, error) {
	s := &Store{b: b, o: o.withDefaults()}
	reg := s.o.Metrics
	s.m = storeMetrics{
		appends:      reg.CounterHandle("storage.wal.appends"),
		appendBytes:  reg.CounterHandle("storage.wal.append_bytes"),
		fsyncs:       reg.CounterHandle("storage.fsyncs"),
		batchSize:    reg.HistHandle("storage.fsync.batch_size"),
		fsyncLatency: reg.HistHandle("storage.fsync.latency.seconds"),
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// Recovered returns the snapshot payload (nil if none) and the WAL
// records after it, in append order. The slices are owned by the
// caller; the Store keeps no references.
func (s *Store) Recovered() (snapshot []byte, records [][]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snapshot, records = s.recSnapshot, s.recRecords
	s.recSnapshot, s.recRecords = nil, nil
	return snapshot, records
}

// NextIndex returns the logical index the next appended record gets.
func (s *Store) NextIndex() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextIndex
}

// SnapshotIndex returns the walIndex of the newest durable snapshot.
func (s *Store) SnapshotIndex() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapIndex
}

// Pending returns how many appended records await an fsync.
func (s *Store) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending
}

func (s *Store) recover() error {
	names, err := s.b.List()
	if err != nil {
		return err
	}

	// A crash between creating a temp file and renaming it into place
	// strands a *.tmp nothing else ever collects (post-snapshot cleanup
	// only prunes segments and snapshots); sweep them here so they don't
	// accumulate across crashes.
	for _, name := range names {
		if strings.HasSuffix(name, tmpSuffix) {
			s.o.Metrics.Inc("storage.recover.tmp_removed", 1)
			_ = s.b.Remove(name)
		}
	}

	segs, snaps := scanNames(names)

	// Newest valid snapshot wins; corrupt ones are removed and the
	// next older candidate is tried (crash-during-snapshot leaves at
	// worst a stale .tmp, which never matches the snapshot pattern).
	for _, idx := range snaps {
		data, err := s.b.ReadFile(snapName(idx))
		if err == nil && len(data) >= 12 {
			walIndex := binary.LittleEndian.Uint64(data[0:8])
			sum := binary.LittleEndian.Uint32(data[8:12])
			payload := data[12:]
			if walIndex == idx && crc32.Checksum(payload, crcTable) == sum {
				s.snapIndex = idx
				s.recSnapshot = payload
				break
			}
		}
		s.o.Metrics.Inc("storage.recover.snapshot_fallbacks", 1)
		_ = s.b.Remove(snapName(idx))
	}

	// Replay segments in index order. expected tracks the next record
	// index; a torn frame or an inter-segment gap is the end of the
	// log — everything after it is discarded, physically.
	var (
		expected   uint64
		records    [][]byte
		replayedAt = -1 // position in segs where replay stopped short, -1 = clean
	)
	for i, first := range segs {
		if i == 0 {
			expected = first
		} else if first != expected {
			replayedAt = i
			break
		}
		data, err := s.b.ReadFile(segName(first))
		if err != nil {
			return err
		}
		recs, valid := parseFrames(data)
		for _, rec := range recs {
			if expected >= s.snapIndex {
				records = append(records, rec)
			}
			expected++
		}
		if valid < len(data) {
			s.o.Metrics.Inc("storage.recover.torn_frames", 1)
			s.o.Metrics.Inc("storage.recover.truncated_bytes", int64(len(data)-valid))
			if err := s.repairSegment(first, data[:valid]); err != nil {
				return err
			}
			replayedAt = i + 1
			break
		}
	}
	if replayedAt >= 0 {
		for _, first := range segs[replayedAt:] {
			s.o.Metrics.Inc("storage.recover.dropped_segments", 1)
			_ = s.b.Remove(segName(first))
		}
	}

	// Records are only usable if they are contiguous with the
	// snapshot: a gap (snapshot lost to corruption while newer
	// segments survived) would misalign replay, so drop them — and
	// drop them physically. The gapped segments must go and the append
	// cursor must rewind to the snapshot: if new appends landed after
	// the orphaned range, firstKept > snapIndex would hold again on
	// every later recovery and each one would re-drop fsync-acknowledged
	// records forever.
	if len(records) > 0 {
		firstKept := expected - uint64(len(records))
		if firstKept > s.snapIndex {
			s.o.Metrics.Inc("storage.recover.gap_dropped_records", int64(len(records)))
			records = nil
			for _, first := range segs {
				// Segments past a torn frame were already removed above;
				// only count the ones this pass actually deletes.
				if s.b.Remove(segName(first)) == nil {
					s.o.Metrics.Inc("storage.recover.dropped_segments", 1)
				}
			}
			expected = s.snapIndex
		}
	}

	if expected < s.snapIndex {
		expected = s.snapIndex
	}
	s.nextIndex = expected
	out := make([][]byte, len(records))
	for i, rec := range records {
		out[i] = append([]byte(nil), rec...)
	}
	s.recRecords = out
	s.o.Metrics.Inc("storage.recover.runs", 1)
	s.o.Metrics.Inc("storage.recover.records", int64(len(out)))
	return nil
}

// repairSegment rewrites a segment to its valid byte prefix (or removes
// it when nothing valid remains) so the garbage tail cannot shadow
// later appends on the next recovery. The rewrite goes through a temp
// file and a rename (the same commit pattern WriteSnapshot uses): an
// in-place truncate-and-rewrite would open a window where a crash
// between Create and Sync destroys the fsync-acknowledged prefix we are
// trying to preserve.
func (s *Store) repairSegment(first uint64, valid []byte) error {
	name := segName(first)
	if len(valid) == 0 {
		return s.b.Remove(name)
	}
	tmp := name + tmpSuffix
	f, err := s.b.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(valid); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return s.b.Rename(tmp, name)
}

// Append frames rec and writes it to the current segment, rotating
// first if the segment is full. The record is durable only after the
// next fsync: Append triggers one synchronously once SyncEvery records
// are pending; otherwise the caller's Sync does. Callers that must
// persist before acting call Sync at once.
func (s *Store) Append(rec []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.fail != nil {
		return s.fail
	}
	if len(rec) == 0 {
		return ErrEmptyRecord
	}
	if len(rec) > maxRecordLen {
		return ErrRecordTooLarge
	}
	s.buf = appendFrame(s.buf[:0], rec)
	if s.cur == nil || s.curSize+len(s.buf) > s.o.SegmentSize {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := s.cur.Write(s.buf); err != nil {
		s.fail = err
		return err
	}
	s.curSize += len(s.buf)
	s.nextIndex++
	s.pending++
	s.m.appends.Inc()
	s.m.appendBytes.Add(int64(len(rec)))
	if s.pending >= s.o.SyncEvery {
		return s.syncLocked()
	}
	return nil
}

// Sync fsyncs all pending appends as one group commit.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.fail != nil {
		return s.fail
	}
	return s.syncLocked()
}

func (s *Store) syncLocked() error {
	if s.cur == nil || s.pending == 0 {
		return nil
	}
	batch := s.pending
	start := time.Now()
	err := s.cur.Sync()
	s.m.fsyncs.Inc()
	s.m.batchSize.Observe(float64(batch))
	s.m.fsyncLatency.Observe(time.Since(start).Seconds())
	s.pending = 0
	if err != nil {
		s.fail = err
		return err
	}
	return nil
}

func (s *Store) rotateLocked() error {
	if s.cur != nil {
		if err := s.syncLocked(); err != nil {
			return err
		}
		if err := s.cur.Close(); err != nil {
			s.fail = err
			return err
		}
		s.cur = nil
		s.curSize = 0
		s.o.Metrics.Inc("storage.wal.rotations", 1)
	}
	f, err := s.b.Create(segName(s.nextIndex))
	if err != nil {
		s.fail = err
		return err
	}
	s.cur = f
	s.curSize = 0
	return nil
}

// WriteSnapshot atomically installs payload as the newest snapshot,
// covering every record appended so far: the WAL is synced and rotated,
// the snapshot is written to a temp file, fsynced, renamed into place,
// and only then are the subsumed segments and older snapshots removed.
// A crash at any point leaves either the old snapshot + full WAL or the
// new snapshot — never a state that loses records.
func (s *Store) WriteSnapshot(payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.fail != nil {
		return s.fail
	}
	if err := s.syncLocked(); err != nil {
		return err
	}
	if s.cur != nil {
		if err := s.cur.Close(); err != nil {
			s.fail = err
			return err
		}
		s.cur = nil
		s.curSize = 0
	}
	idx := s.nextIndex
	name := snapName(idx)
	tmp := name + tmpSuffix
	f, err := s.b.Create(tmp)
	if err != nil {
		s.fail = err
		return err
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[0:8], idx)
	binary.LittleEndian.PutUint32(hdr[8:12], crc32.Checksum(payload, crcTable))
	if _, err := f.Write(hdr[:]); err == nil {
		_, err = f.Write(payload)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = s.b.Rename(tmp, name)
	}
	if err != nil {
		s.fail = fmt.Errorf("storage: write snapshot: %w", err)
		return s.fail
	}
	prevSnap := s.snapIndex
	s.snapIndex = idx
	s.o.Metrics.Inc("storage.snapshot.writes", 1)
	s.o.Metrics.Inc("storage.snapshot.bytes", int64(len(payload)))

	// Cleanup is best-effort: leftovers are re-collected next time.
	if names, lerr := s.b.List(); lerr == nil {
		segs, snaps := scanNames(names)
		for _, first := range segs {
			if first < idx {
				_ = s.b.Remove(segName(first))
			}
		}
		for _, old := range snaps {
			if old != idx && (old == prevSnap || old < idx) {
				_ = s.b.Remove(snapName(old))
			}
		}
	}
	return nil
}

// Close flushes pending appends and closes the current segment. It is
// idempotent: the second and later
// calls return nil without touching the backend.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.fail == nil && s.cur != nil && s.pending > 0 {
		err = s.syncLocked()
	}
	if s.cur != nil {
		if cerr := s.cur.Close(); err == nil && s.fail == nil {
			err = cerr
		}
		s.cur = nil
	}
	if s.fail != nil {
		return s.fail
	}
	return err
}
