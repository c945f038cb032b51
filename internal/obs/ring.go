package obs

// Ring is a bounded FIFO of the most recent values: it retains the last
// limit values pushed and counts every push, so readers learn how many
// they missed. The backing array grows lazily — doubling from 64, never
// past the bound — so a ring that records little costs little, in
// memory and, for pointer-bearing values, in GC scan work. Once full, a
// push is one store.
//
// Ring is not synchronized; its owner guards it (the stream's Bus holds
// the one mutex).
type Ring[T any] struct {
	buf   []T
	limit int
	total uint64 // values ever pushed; the newest value's sequence number
}

// NewRing returns an empty ring retaining up to limit values (limit > 0).
func NewRing[T any](limit int) Ring[T] {
	if limit <= 0 {
		panic("obs: ring limit must be positive")
	}
	return Ring[T]{limit: limit}
}

// Push appends v, evicting the oldest value once the ring is full, and
// returns v's sequence number (1 for the first value ever pushed).
func (r *Ring[T]) Push(v T) uint64 {
	if len(r.buf) < r.limit {
		if len(r.buf) == cap(r.buf) {
			r.grow()
		}
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.total%uint64(r.limit)] = v
	}
	r.total++
	return r.total
}

// grow doubles the backing array, clamped to the bound.
func (r *Ring[T]) grow() {
	n := 2 * cap(r.buf)
	if n == 0 {
		n = 64
	}
	if n > r.limit {
		n = r.limit
	}
	next := make([]T, len(r.buf), n)
	copy(next, r.buf)
	r.buf = next
}

// Total returns how many values were ever pushed.
func (r *Ring[T]) Total() uint64 { return r.total }

// Dropped returns how many values have been evicted.
func (r *Ring[T]) Dropped() uint64 { return r.total - uint64(len(r.buf)) }

// Since returns a copy of every retained value with sequence number
// > seq, oldest first, plus how many such values were already evicted
// (non-zero when the caller fell behind the ring).
func (r *Ring[T]) Since(seq uint64) (vals []T, missed uint64) {
	if seq >= r.total {
		return nil, 0
	}
	start := seq + 1
	if oldest := r.total - uint64(len(r.buf)) + 1; start < oldest {
		missed = oldest - start
		start = oldest
	}
	n := int(r.total - start + 1)
	i := int((start - 1) % uint64(len(r.buf)))
	vals = make([]T, 0, n)
	head := min(n, len(r.buf)-i)
	vals = append(vals, r.buf[i:i+head]...)
	vals = append(vals, r.buf[:n-head]...)
	return vals, missed
}
