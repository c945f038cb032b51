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

// verifyJob is one queued asynchronous verification.
type verifyJob struct {
	item BatchItem
	done func(error)
}

// Pool verifies signatures off the caller's thread: a fixed set of
// standing workers drains an unbounded job queue, so the event loop
// submitting work is never blocked (blocking it could deadlock against
// a worker trying to post a completion back onto that same loop).
//
// Two entry points share the workers' Authenticator:
//
//   - VerifyAsync queues one check and invokes done(err) from a worker
//     goroutine when it completes. Completions are unordered; callers
//     needing arrival order re-sequence (see fd.Detector).
//   - VerifyBatch checks a batch synchronously, deduplicating identical
//     (signer, data, sig) items so each distinct signature is verified
//     once, and fanning the distinct checks out across the CPUs. A
//     quorum commit certificate embeds the same PREPARE in every
//     COMMIT, so dedup alone cuts a cert's cost from 2q to q+1 checks.
//
// Pool is safe for concurrent use. Close stops the workers; jobs still
// queued at Close are dropped without their done callback (the host
// tearing the pool down has already detached the loop they would post
// to).
type Pool struct {
	auth    Authenticator
	workers int

	mu     sync.Mutex
	queue  []verifyJob
	wake   chan struct{}
	closed bool

	done chan struct{}
	wg   sync.WaitGroup
}

// NewPool starts a verification pool with the given worker count;
// workers <= 0 selects GOMAXPROCS.
func NewPool(auth Authenticator, workers int) *Pool {
	if workers <= 0 {
		workers = gort.GOMAXPROCS(0)
	}
	p := &Pool{
		auth:    auth,
		workers: workers,
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// VerifyAsync queues one signature check; done(err) is called from a
// worker goroutine. After Close the job is dropped and done is never
// called.
func (p *Pool) VerifyAsync(signer ids.ProcessID, data, sig []byte, done func(error)) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.queue = append(p.queue, verifyJob{item: BatchItem{Signer: signer, Data: data, Sig: sig}, done: done})
	p.mu.Unlock()
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		job, ok := p.pop()
		if !ok {
			select {
			case <-p.wake:
				continue
			case <-p.done:
				return
			}
		}
		job.done(p.auth.Verify(job.item.Signer, job.item.Data, job.item.Sig))
	}
}

func (p *Pool) pop() (verifyJob, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.queue) == 0 {
		return verifyJob{}, false
	}
	job := p.queue[0]
	p.queue[0] = verifyJob{}
	p.queue = p.queue[1:]
	if len(p.queue) > 0 {
		// More work remains: keep the wake token set so another idle
		// worker picks it up.
		select {
		case p.wake <- struct{}{}:
		default:
		}
	}
	return job, true
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

// Close stops the workers and drops any queued jobs. Idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.queue = nil
	p.mu.Unlock()
	close(p.done)
	p.wg.Wait()
}
