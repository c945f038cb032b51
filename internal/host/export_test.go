package host

// RestoreSuspicionState exposes the restore of a snapshot's suspicion
// section to the fuzz tests.
func (h *Host) RestoreSuspicionState(data []byte) bool { return h.restoreSuspicionState(data) }

// RestoreSuspicionRecord exposes the replay of one suspicion WAL record
// (the bytes after the host's tag) to the fuzz tests.
func (h *Host) RestoreSuspicionRecord(payload []byte) bool { return h.restoreSuspicionRecord(payload) }

// MaxSyncDelay exposes the suspicion records' group-commit bound.
const MaxSyncDelay = maxSyncDelay
