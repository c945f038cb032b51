package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
)

func mustOpen(t *testing.T, b Backend, o Options) *Store {
	t.Helper()
	s, err := Open(b, o)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func rec(i int) []byte {
	return []byte(fmt.Sprintf("record-%04d", i))
}

func appendAll(t *testing.T, s *Store, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := s.Append(rec(i)); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
}

func wantRecords(t *testing.T, got [][]byte, from, to int) {
	t.Helper()
	if len(got) != to-from {
		t.Fatalf("recovered %d records, want %d", len(got), to-from)
	}
	for i, r := range got {
		if !bytes.Equal(r, rec(from+i)) {
			t.Fatalf("record %d = %q, want %q", i, r, rec(from+i))
		}
	}
}

func TestWALRoundTrip(t *testing.T) {
	b := NewMemBackend()
	s := mustOpen(t, b, Options{})
	appendAll(t, s, 0, 100)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := mustOpen(t, b, Options{})
	snap, recs := s2.Recovered()
	if snap != nil {
		t.Fatalf("unexpected snapshot: %q", snap)
	}
	wantRecords(t, recs, 0, 100)
	if s2.NextIndex() != 100 {
		t.Fatalf("NextIndex = %d, want 100", s2.NextIndex())
	}
}

func TestWALSegmentRotation(t *testing.T) {
	b := NewMemBackend()
	// Tiny segments force rotation every couple of records.
	s := mustOpen(t, b, Options{SegmentSize: 64, SyncEvery: 1})
	appendAll(t, s, 0, 50)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	names, _ := b.List()
	segs, _ := scanNames(names)
	if len(segs) < 10 {
		t.Fatalf("expected many segments, got %d (%v)", len(segs), names)
	}
	s2 := mustOpen(t, b, Options{})
	_, recs := s2.Recovered()
	wantRecords(t, recs, 0, 50)
}

func TestCrashDropsUnsynced(t *testing.T) {
	b := NewMemBackend()
	s := mustOpen(t, b, Options{SyncEvery: 1000}) // no auto-sync
	appendAll(t, s, 0, 10)
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	appendAll(t, s, 10, 20) // unsynced tail
	b.Crash()

	s2 := mustOpen(t, b, Options{})
	_, recs := s2.Recovered()
	wantRecords(t, recs, 0, 10)
	if s2.NextIndex() != 10 {
		t.Fatalf("NextIndex = %d, want 10", s2.NextIndex())
	}
	// The old store's handles are dead.
	if err := s.Append(rec(99)); err == nil {
		t.Fatal("Append on crashed handle should fail")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	b := NewMemBackend()
	s := mustOpen(t, b, Options{SyncEvery: 1})
	appendAll(t, s, 0, 20)
	if err := s.WriteSnapshot([]byte("state-at-20")); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	appendAll(t, s, 20, 30)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := mustOpen(t, b, Options{})
	snap, recs := s2.Recovered()
	if string(snap) != "state-at-20" {
		t.Fatalf("snapshot = %q", snap)
	}
	wantRecords(t, recs, 20, 30)

	// Subsumed segments were garbage-collected.
	names, _ := b.List()
	segs, _ := scanNames(names)
	for _, first := range segs {
		if first < 20 {
			t.Fatalf("segment below snapshot survived: %v", names)
		}
	}
}

func TestTornTailTruncated(t *testing.T) {
	b := NewMemBackend()
	s := mustOpen(t, b, Options{SyncEvery: 1})
	appendAll(t, s, 0, 5)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Simulate a torn final write: append half a frame.
	name := segName(0)
	data, _ := b.ReadFile(name)
	f, _ := b.Create(name)
	torn := append(data, 0xFF, 0x00, 0x00, 0x00, 0xAA) // header fragment
	f.Write(torn)
	f.Sync()
	f.Close()

	s2 := mustOpen(t, b, Options{})
	_, recs := s2.Recovered()
	wantRecords(t, recs, 0, 5)
	if s2.NextIndex() != 5 {
		t.Fatalf("NextIndex = %d, want 5", s2.NextIndex())
	}
	// The repair is physical: a third open sees a clean tail.
	data2, _ := b.ReadFile(name)
	if !bytes.Equal(data2, data) {
		t.Fatalf("segment not truncated to valid prefix")
	}
}

func TestCorruptFrameStopsReplay(t *testing.T) {
	b := NewMemBackend()
	s := mustOpen(t, b, Options{SyncEvery: 1})
	appendAll(t, s, 0, 8)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Flip a payload bit in the 4th record; replay must stop after 3.
	name := segName(0)
	data, _ := b.ReadFile(name)
	frame := frameHeaderLen + len(rec(0))
	data[3*frame+frameHeaderLen] ^= 0x01
	f, _ := b.Create(name)
	f.Write(data)
	f.Sync()
	f.Close()

	s2 := mustOpen(t, b, Options{})
	_, recs := s2.Recovered()
	wantRecords(t, recs, 0, 3)
	if s2.NextIndex() != 3 {
		t.Fatalf("NextIndex = %d, want 3", s2.NextIndex())
	}
	// New appends after the truncation point replace the lost suffix.
	appendAll(t, s2, 3, 6)
	s2.Close()
	s3 := mustOpen(t, b, Options{})
	_, recs3 := s3.Recovered()
	wantRecords(t, recs3, 0, 6)
}

func TestCorruptionDropsLaterSegments(t *testing.T) {
	b := NewMemBackend()
	s := mustOpen(t, b, Options{SegmentSize: 64, SyncEvery: 1})
	appendAll(t, s, 0, 20)
	s.Close()
	names, _ := b.List()
	segs, _ := scanNames(names)
	if len(segs) < 3 {
		t.Fatalf("need ≥3 segments, got %d", len(segs))
	}
	// Corrupt the first byte of the second segment: everything from
	// there on is discarded.
	name := segName(segs[1])
	data, _ := b.ReadFile(name)
	data[0] ^= 0xFF
	f, _ := b.Create(name)
	f.Write(data)
	f.Sync()
	f.Close()

	s2 := mustOpen(t, b, Options{})
	_, recs := s2.Recovered()
	if uint64(len(recs)) != segs[1] {
		t.Fatalf("recovered %d records, want %d", len(recs), segs[1])
	}
	names2, _ := b.List()
	segs2, _ := scanNames(names2)
	for _, first := range segs2 {
		if first > segs[1] {
			t.Fatalf("segment after corruption survived: %v", names2)
		}
	}
}

func TestCrashDuringSnapshotFallsBack(t *testing.T) {
	b := NewMemBackend()
	s := mustOpen(t, b, Options{SyncEvery: 1})
	appendAll(t, s, 0, 10)
	if err := s.WriteSnapshot([]byte("snap-10")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, 10, 20)
	s.Close()

	// Crash mid-snapshot-write: a later snapshot exists only as a
	// garbage temp file. Recovery must ignore it and use snap-10 +
	// the WAL tail.
	f, _ := b.Create(snapName(20) + tmpSuffix)
	f.Write([]byte("partial garbage"))
	f.Sync()
	f.Close()

	s2 := mustOpen(t, b, Options{})
	snap, recs := s2.Recovered()
	if string(snap) != "snap-10" {
		t.Fatalf("snapshot = %q, want snap-10", snap)
	}
	wantRecords(t, recs, 10, 20)
}

func TestCorruptSnapshotFallsBackToOlder(t *testing.T) {
	b := NewMemBackend()
	s := mustOpen(t, b, Options{SyncEvery: 1})
	appendAll(t, s, 0, 10)
	if err := s.WriteSnapshot([]byte("snap-10")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, 10, 20)
	if err := s.WriteSnapshot([]byte("snap-20")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Corrupt the newest snapshot (bit rot). The older snapshot was
	// garbage-collected, and the segments below index 20 are gone, so
	// recovery falls all the way back to empty — but must NOT hand
	// back misaligned records.
	name := snapName(20)
	data, _ := b.ReadFile(name)
	data[len(data)-1] ^= 0x01
	f, _ := b.Create(name)
	f.Write(data)
	f.Sync()
	f.Close()

	s2 := mustOpen(t, b, Options{})
	snap, recs := s2.Recovered()
	if snap != nil || len(recs) != 0 {
		t.Fatalf("expected empty recovery, got snap=%q recs=%d", snap, len(recs))
	}
}

func TestSnapshotHeaderIndexMismatchRejected(t *testing.T) {
	b := NewMemBackend()
	s := mustOpen(t, b, Options{SyncEvery: 1})
	appendAll(t, s, 0, 4)
	if err := s.WriteSnapshot([]byte("snap-4")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Rename the snapshot so its name disagrees with its header: it
	// must be rejected rather than replayed at the wrong index.
	if err := b.Rename(snapName(4), snapName(9)); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, b, Options{})
	snap, _ := s2.Recovered()
	if snap != nil {
		t.Fatalf("mismatched snapshot accepted: %q", snap)
	}
}

func TestDoubleCloseAndUseAfterClose(t *testing.T) {
	b := NewMemBackend()
	s := mustOpen(t, b, Options{})
	appendAll(t, s, 0, 3)
	if err := s.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := s.Append(rec(0)); err != ErrClosed {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := s.Sync(); err != ErrClosed {
		t.Fatalf("Sync after Close = %v, want ErrClosed", err)
	}
	if err := s.WriteSnapshot(nil); err != ErrClosed {
		t.Fatalf("WriteSnapshot after Close = %v, want ErrClosed", err)
	}
}

func TestEmptyAndOversizeRecordsRejected(t *testing.T) {
	s := mustOpen(t, NewMemBackend(), Options{})
	if err := s.Append(nil); err != ErrEmptyRecord {
		t.Fatalf("empty append = %v", err)
	}
	if err := s.Append(make([]byte, maxRecordLen+1)); err != ErrRecordTooLarge {
		t.Fatalf("oversize append = %v", err)
	}
}

func TestGroupCommitBatchesFsyncs(t *testing.T) {
	b := NewMemBackend()
	s := mustOpen(t, b, Options{SyncEvery: 8})
	for i := 0; i < 24; i++ {
		if err := s.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("pending after 3 full batches = %d, want 0", got)
	}
	// A partial batch stays pending until an explicit Sync (no timer
	// configured here).
	appendAll(t, s, 24, 27)
	if got := s.Pending(); got != 3 {
		t.Fatalf("pending = %d, want 3", got)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	b.Crash()
	s2 := mustOpen(t, b, Options{})
	_, recs := s2.Recovered()
	wantRecords(t, recs, 0, 27)
}

func TestSkipSyncTamperLosesAcknowledgedWrites(t *testing.T) {
	b := NewMemBackend()
	b.SetSkipSync(true)
	s := mustOpen(t, b, Options{SyncEvery: 1})
	appendAll(t, s, 0, 10)
	if err := s.Sync(); err != nil {
		t.Fatalf("tampered Sync must still report success: %v", err)
	}
	b.Crash()
	s2 := mustOpen(t, b, Options{})
	_, recs := s2.Recovered()
	if len(recs) != 0 {
		t.Fatalf("tampered backend kept %d records across crash", len(recs))
	}
}

// TestGapDropRemovesOrphanedSegments: when recovery drops records that
// are not contiguous with the recovered snapshot, the orphaned segments
// must be deleted and the append cursor rewound to the snapshot —
// otherwise new appends land after the orphaned range and every later
// recovery re-drops them, making all post-recovery writes silently
// non-recoverable.
func TestGapDropRemovesOrphanedSegments(t *testing.T) {
	b := NewMemBackend()
	s := mustOpen(t, b, Options{SyncEvery: 1})
	appendAll(t, s, 0, 10)
	if err := s.WriteSnapshot([]byte("snap-10")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, 10, 20)
	if err := s.WriteSnapshot([]byte("snap-20")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, 20, 30)
	s.Close()

	// Corrupt the only snapshot: recovery falls back to empty, and the
	// surviving segment (records 20..30) is gapped relative to it.
	name := snapName(20)
	data, _ := b.ReadFile(name)
	data[len(data)-1] ^= 0x01
	f, _ := b.Create(name)
	f.Write(data)
	f.Sync()
	f.Close()

	s2 := mustOpen(t, b, Options{SyncEvery: 1})
	snap, recs := s2.Recovered()
	if snap != nil || len(recs) != 0 {
		t.Fatalf("expected empty recovery, got snap=%q recs=%d", snap, len(recs))
	}
	if s2.NextIndex() != 0 {
		t.Fatalf("NextIndex after gap-drop = %d, want 0 (rewound to snapshot)", s2.NextIndex())
	}
	names, _ := b.List()
	if segs, _ := scanNames(names); len(segs) != 0 {
		t.Fatalf("orphaned segments survived gap-drop: %v", names)
	}

	// The regression: writes accepted after a gap-drop recovery must be
	// recoverable on the next open, not dropped again.
	appendAll(t, s2, 0, 5)
	s2.Close()
	s3 := mustOpen(t, b, Options{})
	snap3, recs3 := s3.Recovered()
	if snap3 != nil {
		t.Fatalf("unexpected snapshot: %q", snap3)
	}
	wantRecords(t, recs3, 0, 5)
}

// TestRecoverRemovesStaleTempFiles: a crash between creating a temp
// file and renaming it into place must not leak the temp forever —
// recovery sweeps them.
func TestRecoverRemovesStaleTempFiles(t *testing.T) {
	b := NewMemBackend()
	s := mustOpen(t, b, Options{SyncEvery: 1})
	appendAll(t, s, 0, 5)
	s.Close()
	for _, stale := range []string{snapName(20) + tmpSuffix, segName(0) + tmpSuffix} {
		f, _ := b.Create(stale)
		f.Write([]byte("partial garbage"))
		f.Sync()
		f.Close()
	}

	s2 := mustOpen(t, b, Options{})
	_, recs := s2.Recovered()
	wantRecords(t, recs, 0, 5)
	names, _ := b.List()
	for _, name := range names {
		if len(name) > len(tmpSuffix) && name[len(name)-len(tmpSuffix):] == tmpSuffix {
			t.Fatalf("stale temp file survived recovery: %v", names)
		}
	}
}

// crashOnRenameBackend injects a power cut at the worst moment of a
// segment repair: after the temp file is written but before the rename
// commits it.
type crashOnRenameBackend struct {
	*MemBackend
	armed bool
}

func (b *crashOnRenameBackend) Rename(oldName, newName string) error {
	if b.armed {
		b.armed = false
		b.Crash()
		return ErrCrashed
	}
	return b.MemBackend.Rename(oldName, newName)
}

// TestRepairSurvivesCrashDuringRepair: torn-tail repair must never
// expose the fsync-acknowledged prefix to a crash window. A crash at
// any point of the repair leaves the original segment intact, so the
// next recovery still sees every acknowledged record.
func TestRepairSurvivesCrashDuringRepair(t *testing.T) {
	b := &crashOnRenameBackend{MemBackend: NewMemBackend()}
	s := mustOpen(t, b, Options{SyncEvery: 1})
	appendAll(t, s, 0, 5)
	s.Close()
	// Durable torn tail: recovery will want to repair the segment.
	name := segName(0)
	data, _ := b.ReadFile(name)
	f, _ := b.MemBackend.Create(name)
	f.Write(append(data, 0xFF, 0x00, 0x00, 0x00, 0xAA))
	f.Sync()
	f.Close()

	b.armed = true
	if _, err := Open(b, Options{}); err == nil {
		t.Fatal("Open during injected repair crash should fail")
	}

	// The restarted process recovers the full acknowledged prefix and
	// leaves no temp debris behind.
	s2 := mustOpen(t, b, Options{})
	_, recs := s2.Recovered()
	wantRecords(t, recs, 0, 5)
	names, _ := b.List()
	for _, n := range names {
		if len(n) > len(tmpSuffix) && n[len(n)-len(tmpSuffix):] == tmpSuffix {
			t.Fatalf("repair temp file survived: %v", names)
		}
	}
}

// TestSnapshotCommitSurvivesVolatileMetadata runs the snapshot commit
// under the weaker metadata model DirBackend actually provides
// (best-effort directory fsyncs): if the crash rolls back the whole
// metadata batch — temp create, rename, segment removes — recovery must
// come back with the full pre-snapshot WAL; if the metadata committed,
// the snapshot wins. Either way no acknowledged record is lost.
func TestSnapshotCommitSurvivesVolatileMetadata(t *testing.T) {
	// Lost-rename schedule.
	b := NewMemBackend()
	s := mustOpen(t, b, Options{SyncEvery: 1})
	appendAll(t, s, 0, 10)
	b.SetVolatileMetadata(true)
	if err := s.WriteSnapshot([]byte("snap-10")); err != nil {
		t.Fatal(err)
	}
	b.Crash()
	s2 := mustOpen(t, b, Options{})
	snap, recs := s2.Recovered()
	if snap != nil {
		t.Fatalf("rolled-back snapshot resurfaced: %q", snap)
	}
	wantRecords(t, recs, 0, 10)

	// Same schedule with the metadata batch committed before the crash.
	b2 := NewMemBackend()
	s3 := mustOpen(t, b2, Options{SyncEvery: 1})
	appendAll(t, s3, 0, 10)
	b2.SetVolatileMetadata(true)
	if err := s3.WriteSnapshot([]byte("snap-10")); err != nil {
		t.Fatal(err)
	}
	b2.SetVolatileMetadata(false) // directory fsyncs landed
	b2.Crash()
	s4 := mustOpen(t, b2, Options{})
	snap4, recs4 := s4.Recovered()
	if string(snap4) != "snap-10" || len(recs4) != 0 {
		t.Fatalf("committed snapshot lost: snap=%q recs=%d", snap4, len(recs4))
	}
}

func TestDirBackendRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b, err := NewDirBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, b, Options{SegmentSize: 256, SyncEvery: 4})
	appendAll(t, s, 0, 20)
	if err := s.WriteSnapshot([]byte("dir-snap")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, 20, 30)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	b2, err := NewDirBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, b2, Options{})
	snap, recs := s2.Recovered()
	if string(snap) != "dir-snap" {
		t.Fatalf("snapshot = %q", snap)
	}
	wantRecords(t, recs, 20, 30)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDirBackendRejectsPathEscape(t *testing.T) {
	b, err := NewDirBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", "../evil", "a/b", "a\\b"} {
		if _, err := b.Create(name); err == nil {
			t.Fatalf("Create(%q) accepted", name)
		}
	}
}

// TestConcurrentAppendVsClose is the -race storm at the storage layer:
// writers hammer Append/Sync while Close races in. Every outcome must
// be either a successful append or ErrClosed — never a torn internal
// state — and a reopen must recover a valid record prefix.
func TestConcurrentAppendVsClose(t *testing.T) {
	for round := 0; round < 20; round++ {
		b := NewMemBackend()
		s := mustOpen(t, b, Options{SegmentSize: 512, SyncEvery: 4})
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					var rec [8]byte
					binary.LittleEndian.PutUint64(rec[:], uint64(w*1000+i))
					if err := s.Append(rec[:]); err != nil {
						if err == ErrClosed {
							return
						}
						t.Errorf("Append: %v", err)
						return
					}
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
		wg.Wait()
		s2, err := Open(b, Options{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		_, recs := s2.Recovered()
		for _, r := range recs {
			if len(r) != 8 {
				t.Fatalf("corrupt record length %d", len(r))
			}
		}
	}
}
