package crypto

import (
	"bytes"
	gort "runtime"
	"sync"
	"sync/atomic"

	"quorumselect/internal/ids"
)

// BatchItem is one signature check of a batched verification pass:
// did Signer sign Data with Sig?
type BatchItem struct {
	Signer ids.ProcessID
	Data   []byte
	Sig    []byte
}

// VerifySerial checks every item independently, in order, on the
// calling goroutine — the baseline the batched pass amortizes against.
func VerifySerial(auth Authenticator, items []BatchItem) []error {
	errs := make([]error, len(items))
	for i, it := range items {
		errs[i] = auth.Verify(it.Signer, it.Data, it.Sig)
	}
	return errs
}

// Pool verifies a batch of signatures at once: VerifyBatch
// deduplicates identical (signer, data, sig) items so each distinct
// signature is verified once, and fans the distinct checks out across
// up to Workers goroutines for the duration of the call. A quorum
// commit certificate embeds the same PREPARE in every COMMIT, so dedup
// alone cuts a cert's cost from 2q to q+1 checks.
//
// Pool holds no goroutines between calls and is safe for concurrent
// use.
type Pool struct {
	auth    Authenticator
	workers int
}

// NewPool returns a batch verifier fanning out across the given number
// of goroutines; workers <= 0 selects GOMAXPROCS.
func NewPool(auth Authenticator, workers int) *Pool {
	if workers <= 0 {
		workers = gort.GOMAXPROCS(0)
	}
	return &Pool{auth: auth, workers: workers}
}

// VerifyBatch checks all items and returns one error slice aligned with
// them. Identical items — same signer, same signature, same data —
// are verified once and share the result; the distinct checks run
// across min(Workers, distinct) goroutines. The call blocks until the
// whole batch is decided.
func (p *Pool) VerifyBatch(items []BatchItem) []error {
	errs := make([]error, len(items))
	if len(items) == 0 {
		return errs
	}
	// Dedup: alias[i] names the representative index whose result item
	// i shares. Signature bytes key the map (identical data virtually
	// implies identical sigs for honest signers); data equality is
	// confirmed before aliasing so a colliding signature over different
	// bytes still gets its own check.
	alias := make([]int, len(items))
	distinct := make([]int, 0, len(items))
	seen := make(map[string][]int, len(items))
	for i, it := range items {
		key := string(it.Sig)
		rep := -1
		for _, j := range seen[key] {
			r := items[j]
			if r.Signer == it.Signer && bytes.Equal(r.Data, it.Data) {
				rep = j
				break
			}
		}
		if rep >= 0 {
			alias[i] = rep
			continue
		}
		alias[i] = i
		distinct = append(distinct, i)
		seen[key] = append(seen[key], i)
	}

	workers := p.workers
	if workers > len(distinct) {
		workers = len(distinct)
	}
	if workers <= 1 {
		for _, i := range distinct {
			it := items[i]
			errs[i] = p.auth.Verify(it.Signer, it.Data, it.Sig)
		}
	} else {
		var next atomic.Int64
		next.Store(-1)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					k := int(next.Add(1))
					if k >= len(distinct) {
						return
					}
					i := distinct[k]
					it := items[i]
					errs[i] = p.auth.Verify(it.Signer, it.Data, it.Sig)
				}
			}()
		}
		wg.Wait()
	}
	for i := range items {
		if alias[i] != i {
			errs[i] = errs[alias[i]]
		}
	}
	return errs
}

// Close releases the pool. A pool keeps nothing running between
// batches, so there is nothing to stop; Close is idempotent and the
// pool stays usable.
func (p *Pool) Close() {}
