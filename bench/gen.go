package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	qs "quorumselect"
	"quorumselect/internal/load"
)

const (
	// keySpace is "uniform:n=2000" everywhere: bounded state (unique
	// keys would make every checkpoint O(history)).
	keySpace = 2000
	// opTimeout is how long an op may stay outstanding before it counts
	// as failed.
	opTimeout = 10 * time.Second
	// lateTolerance is how far a send may lag its intended instant
	// before it counts as a late send (load.Recorder's tolerance).
	lateTolerance = time.Millisecond
	// maxLateRatio is the share of late sends beyond which an open-loop
	// segment measured its generator, not the system.
	maxLateRatio = 0.10
	// segments is how many independent, equal segments a run's work is
	// split into; every end-to-end metric is computed per segment.
	segments = 5
)

// plan is the fixed, seed-determined operation list of one segment: a
// warm-up prefix followed by the measured ops.
type plan struct {
	ops      [][]byte
	shard    []int32
	seq      []uint64        // per-shard client sequence number
	intended []time.Duration // open loop: offset from the first op; nil in a closed loop
	perShard []int           // ops routed to each shard
}

func clientID(shard int) uint64 { return uint64(100 + shard) }

// makePlan draws n ops over the uniform keyspace, routed to shards by
// the fleet's consistent-hash router. rate > 0 adds Poisson intended
// send times (open loop).
func makePlan(seed int64, n, shards int, rate float64) *plan {
	rng := rand.New(rand.NewSource(seed))
	keys := &load.UniformKeys{N: keySpace}
	router := qs.NewShardRouter(shards)
	p := &plan{
		ops:      make([][]byte, n),
		shard:    make([]int32, n),
		seq:      make([]uint64, n),
		perShard: make([]int, shards),
	}
	var arrivals load.Arrivals
	if rate > 0 {
		arrivals = &load.Poisson{R: rate}
		p.intended = make([]time.Duration, n)
	}
	var at time.Duration
	for i := 0; i < n; i++ {
		key := keys.Next(rng)
		s := router.RouteString(key)
		p.perShard[s]++
		p.shard[i] = int32(s)
		p.seq[i] = uint64(p.perShard[s])
		p.ops[i] = []byte(fmt.Sprintf("set %s v%d", key, i))
		if arrivals != nil {
			at += arrivals.Next(rng)
			p.intended[i] = at
		}
	}
	return p
}

// mark is a resource snapshot taken at a segment boundary.
type mark struct {
	wall time.Duration
	cpu  time.Duration // getrusage(RUSAGE_SELF) user+sys
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func takeMark(start time.Time) mark {
	return mark{wall: time.Since(start), cpu: cpuTime()}
}

// sleepUntil blocks until the offset from start. time.Sleep overshoots
// sub-millisecond waits by up to a millisecond when the process is
// idle (the netpoller's timeout granularity), which would make most
// sends at 1000 op/s late by construction; nanosleep does not.
func sleepUntil(start time.Time, offset time.Duration) {
	if wait := offset - time.Since(start); wait > 0 {
		ts := syscall.NsecToTimespec(int64(wait))
		syscall.Nanosleep(&ts, nil)
	}
}

// driver is the single generator goroutine's state: it submits each op
// to its target (host.Do(replica.Submit) at the shard's leader) and
// learns of completions from that replica's OnExecute.
type driver struct {
	p      *plan
	target func(shard int, req *qs.Request)
	index  [][]int32 // shard → seq-1 → op index
	start  time.Time // origin of sent/done offsets

	sent []time.Duration // actual send offset
	// done holds each op's completion offset in ns (0 = not completed),
	// written on the leaders' host loops.
	done      []atomic.Int64
	completed atomic.Int64
	// tokens carries one token per completion to the closed-loop
	// generator (nil in an open loop). Its capacity is the outstanding
	// bound, so a host loop never blocks on it while the generator
	// waits inside host.Do.
	tokens chan struct{}
}

func newDriver(p *plan, outstanding int, target func(shard int, req *qs.Request)) *driver {
	d := &driver{
		p:      p,
		target: target,
		index:  make([][]int32, len(p.perShard)),
		start:  time.Now(),
		sent:   make([]time.Duration, len(p.ops)),
		done:   make([]atomic.Int64, len(p.ops)),
	}
	for s, n := range p.perShard {
		d.index[s] = make([]int32, n)
	}
	for i, s := range p.shard {
		d.index[s][p.seq[i]-1] = int32(i)
	}
	if p.intended == nil {
		d.tokens = make(chan struct{}, outstanding)
	}
	return d
}

// complete records an execution observed at a shard's leader; it runs
// on that host's event loop.
func (d *driver) complete(shard int, e qs.Execution) {
	if e.Client != clientID(shard) || e.Seq == 0 || int(e.Seq) > len(d.index[shard]) {
		return
	}
	i := d.index[shard][e.Seq-1]
	if d.done[i].Load() != 0 {
		return
	}
	d.done[i].Store(int64(time.Since(d.start)))
	// Token before count: once the generator sees every op counted, no
	// token is still on its way into the channel.
	if d.tokens != nil {
		d.tokens <- struct{}{}
	}
	d.completed.Add(1)
}

// cue is something the generator does on reaching an op index: take a
// segment mark, toggle tracing.
type cue struct {
	at int
	do func()
}

// run drives ops [from, to) and waits for them to complete. In a closed
// loop the generator keeps cap(tokens) ops outstanding and submits
// inline. In an open loop (the plan has intended times) it stamps each
// op at its intended offset from the phase start and hands it to a
// submitter goroutine, so a busy leader loop delays the op, which is
// charged to the system from the intended time, and never the schedule.
// cues must be in ascending index order. It returns the phase start
// offset (the origin of intended times) and whether every op completed
// within opTimeout.
func (d *driver) run(from, to int, cues []cue) (phaseStart time.Duration, ok bool) {
	phaseStart = time.Since(d.start)
	want := d.completed.Load() + int64(to-from)
	submit := func(i int) {
		s := int(d.p.shard[i])
		d.target(s, &qs.Request{Client: clientID(s), Seq: d.p.seq[i], Op: d.p.ops[i]})
	}
	open := d.p.intended != nil
	var base time.Duration
	var handoff chan int
	var submitter sync.WaitGroup
	if open {
		base = d.p.intended[from]
		// Sized to the phase, so the generator never blocks on it.
		handoff = make(chan int, to-from)
		submitter.Add(1)
		go func() {
			defer submitter.Done()
			for i := range handoff {
				submit(i)
			}
		}()
	}
	stall := time.NewTimer(opTimeout)
	defer stall.Stop()
	inFlight := 0
	for i := from; i < to; i++ {
		for len(cues) > 0 && cues[0].at == i {
			cues[0].do()
			cues = cues[1:]
		}
		if open {
			sleepUntil(d.start, phaseStart+d.p.intended[i]-base)
			d.sent[i] = time.Since(d.start)
			handoff <- i
			continue
		}
		if inFlight == cap(d.tokens) {
			select {
			case <-d.tokens:
			default:
				stall.Reset(opTimeout)
				select {
				case <-d.tokens:
				case <-stall.C:
					return phaseStart, false // stalled: the unsent ops fail the run
				}
			}
			inFlight--
		}
		d.sent[i] = time.Since(d.start)
		submit(i)
		inFlight++
	}
	if open {
		close(handoff)
		submitter.Wait()
	}
	// Drain, polling at 1 ms.
	deadline := time.Now().Add(opTimeout)
	for d.completed.Load() < want {
		if time.Now().After(deadline) {
			return phaseStart, false
		}
		time.Sleep(time.Millisecond)
	}
	for len(d.tokens) > 0 {
		<-d.tokens
	}
	return phaseStart, true
}

// generatorAloneUs runs the plan's generator loop unpaced against a
// target that completes every op at once: the generator's own cost per
// op, in µs.
func generatorAloneUs(p *plan, outstanding int) float64 {
	unpaced := *p
	unpaced.intended = nil
	var d *driver
	d = newDriver(&unpaced, max(outstanding, 1), func(shard int, req *qs.Request) {
		d.complete(shard, qs.Execution{Client: req.Client, Seq: req.Seq})
	})
	t0 := time.Now()
	d.run(0, len(p.ops), nil)
	return us(time.Since(t0)) / float64(len(p.ops))
}
