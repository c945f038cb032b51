package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"strconv"
	"strings"
)

// WAL on-disk format. Each segment file is a sequence of frames:
//
//	[4B little-endian payload length][4B CRC32C(payload)][payload]
//
// Segments are named wal-<firstIndex %016x>.seg where firstIndex is the
// logical index of the first record in the file; record indices are
// monotone across segments, so replay order is the lexicographic file
// order. Snapshots are snap-<walIndex %016x>.snap: a snapshot at
// walIndex subsumes every record with index < walIndex.
//
// A zero length field is the torn-write sentinel (filesystems zero-fill
// preallocated tails), which is why Append rejects empty records.

const (
	frameHeaderLen = 8
	// maxRecordLen bounds a frame's declared payload so a flipped
	// length bit cannot make replay attempt a multi-GB allocation.
	maxRecordLen = 1 << 24

	segPrefix  = "wal-"
	segSuffix  = ".seg"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	tmpSuffix  = ".tmp"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func appendFrame(dst, rec []byte) []byte {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(rec)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(rec, crcTable))
	dst = append(dst, hdr[:]...)
	return append(dst, rec...)
}

// parseFrames decodes frames from data until the first torn or corrupt
// one, returning the decoded records (aliasing data) and the byte
// length of the valid prefix.
func parseFrames(data []byte) (recs [][]byte, validBytes int) {
	off := 0
	for {
		if len(data)-off < frameHeaderLen {
			return recs, off
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		if n == 0 || n > maxRecordLen || len(data)-off-frameHeaderLen < n {
			return recs, off
		}
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		payload := data[off+frameHeaderLen : off+frameHeaderLen+n]
		if crc32.Checksum(payload, crcTable) != sum {
			return recs, off
		}
		recs = append(recs, payload)
		off += frameHeaderLen + n
	}
}

func segName(firstIndex uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, firstIndex, segSuffix)
}

func snapName(walIndex uint64) string {
	return fmt.Sprintf("%s%016x%s", snapPrefix, walIndex, snapSuffix)
}

func parseName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hex := name[len(prefix) : len(name)-len(suffix)]
	if len(hex) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// scanNames splits a backend listing into segments (ascending by first
// record index) and snapshots (descending by walIndex, newest first).
func scanNames(names []string) (segs, snaps []uint64) {
	for _, name := range names {
		if idx, ok := parseName(name, segPrefix, segSuffix); ok {
			segs = append(segs, idx)
		} else if idx, ok := parseName(name, snapPrefix, snapSuffix); ok {
			snaps = append(snaps, idx)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] > snaps[j] })
	return segs, snaps
}
