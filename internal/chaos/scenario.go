package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"quorumselect/internal/adversary"
	"quorumselect/internal/cluster"
	"quorumselect/internal/core"
	"quorumselect/internal/ids"
	"quorumselect/internal/sim"
	"quorumselect/internal/wire"
	"quorumselect/internal/xpaxos"
)

// FaultClass names one of the paper's §II failure classes as the
// scenario generator injects it. Every class is scoped to the
// scenario's faulty set, so at most f processes misbehave and the
// protocols' safety claims must hold.
type FaultClass string

// The fault taxonomy. See DESIGN.md §9 for the mapping to the paper's
// failure classes.
const (
	// FaultCrash stops a process via the host lifecycle (crash failure);
	// it may later come back, recovering whatever its durable storage
	// holds.
	FaultCrash FaultClass = "crash"
	// FaultCrashRestart hard-crashes a process — its storage backend
	// drops every write not yet durably synced, modeling power loss —
	// and always restarts it, forcing a recovery from the surviving
	// WAL + snapshot. In a schedule generated without restarts it
	// degrades to a permanent hard crash.
	FaultCrashRestart FaultClass = "crash-restart"
	// FaultOmission drops one in every k messages from a faulty process
	// (repeated omission failure).
	FaultOmission FaultClass = "omission"
	// FaultBurst drops everything from a faulty process during the On
	// part of an On/Off cycle (repeated omission with unbounded gaps).
	FaultBurst FaultClass = "burst"
	// FaultPartition severs all links between one faulty process and the
	// rest until the window closes (link omission; opens and heals).
	FaultPartition FaultClass = "partition"
	// FaultTiming adds bounded pseudo-random delay to a faulty process's
	// messages (timing failure).
	FaultTiming FaultClass = "timing"
	// FaultIncreasingTiming adds monotonically growing delay (the
	// paper's increasing timing failure) while the window is open.
	FaultIncreasingTiming FaultClass = "increasing-timing"
	// FaultDuplicate replays frames from a faulty process (faulty link).
	FaultDuplicate FaultClass = "duplicate"
	// FaultMutate corrupts frames from a faulty process with
	// wire.MutateFrame (commission failure: flipped fields, forged
	// signatures, truncations).
	FaultMutate FaultClass = "mutate"
)

// AllFaults returns every fault class, in stable order.
func AllFaults() []FaultClass {
	return []FaultClass{
		FaultCrash, FaultCrashRestart, FaultOmission, FaultBurst,
		FaultPartition, FaultTiming, FaultIncreasingTiming,
		FaultDuplicate, FaultMutate,
	}
}

// ParseFaults parses a comma-separated fault-class list ("crash,mutate");
// "all" or "" selects every class.
func ParseFaults(s string) ([]FaultClass, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "all" {
		return AllFaults(), nil
	}
	known := make(map[FaultClass]bool)
	for _, f := range AllFaults() {
		known[f] = true
	}
	var out []FaultClass
	for _, part := range strings.Split(s, ",") {
		f := FaultClass(strings.TrimSpace(part))
		if !known[f] {
			return nil, fmt.Errorf("chaos: unknown fault class %q", f)
		}
		out = append(out, f)
	}
	return out, nil
}

// CrashPlan schedules one crash (and optional restart) of a faulty
// process.
type CrashPlan struct {
	Proc ids.ProcessID
	At   time.Duration
	// RestartAt resurrects the process from its durable state (zero:
	// stays down). Only set when the cluster is restart-capable.
	RestartAt time.Duration
	// Hard marks a power-loss crash: unsynced writes are dropped from
	// the process's storage backend before it stops.
	Hard bool
}

// Scenario is one fully derived fault schedule: everything RunSeed
// needs to replay a run is determined by (Config, Seed).
type Scenario struct {
	Seed int64
	// Faulty is the set of misbehaving processes, |Faulty| ≤ f.
	Faulty ids.ProcSet
	// Crashes lists the crash/restart churn (faults of class crash).
	Crashes []CrashPlan
	// Filter is the composed network-fault filter for the run.
	Filter sim.Filter
	// FaultEnd is when all fault windows have closed (crashes excepted:
	// an un-restarted crash is permanent).
	FaultEnd time.Duration
	// Desc is the deterministic, human-readable fault schedule, one
	// line per faulty process.
	Desc []string
}

// Preset names a schedule generator: the family of scenarios a
// campaign draws its seeds from. Every preset runs on the same runner,
// checkers and dump.
type Preset string

// The presets.
const (
	// PresetGenerated draws a random fault schedule per seed
	// (GenerateScenario) against a spread-out client workload.
	PresetGenerated Preset = ""
	// PresetShardedPartition cuts shard 0's leader off at the envelope
	// level — only its shard-0 frames drop, so the same process keeps
	// serving its other shards — and demands the other shards commit
	// through the fault.
	PresetShardedPartition Preset = "sharded-partition"
	// PresetUnsafeSpec gates an intersection-violating quorum spec
	// before boot and, with Config.Force, boots on it anyway to show the
	// fork.
	PresetUnsafeSpec Preset = "unsafe-spec"
)

// schedule is one seed's scenario as data: everything the runner
// executes besides the cluster composition Config names.
type schedule struct {
	// Scenario holds the faulty set, crashes, network filter and the
	// human-readable description.
	*Scenario
	// submits is the workload, scheduled in order.
	submits []submission
	// probeAt is where liveness probes go (0: a correct running member).
	probeAt ids.ProcessID
	// site, when set, adjusts each site's node and XPaxos options.
	site func(at cluster.Site, node *core.NodeOptions, xo *xpaxos.Options)
	// settle is when suspicions are assumed stable and probes go out (0:
	// never); horizon ends the run; checkers run every slice.
	settle, horizon, slice time.Duration
	// checkers extend every shard's default suite.
	checkers []Checker
}

// submission is one client request of the workload.
type submission struct {
	at    time.Duration
	shard int
	entry ids.ProcessID // 0: a correct running member
	req   *wire.Request
}

// generate returns the seed's schedule from the configured preset. A
// nil schedule means the run ends before boot: with a violation, or
// after the spec gate rejected the spec as it should.
func (r *RunState) generate() (*schedule, *Violation) {
	switch r.Config.Preset {
	case PresetShardedPartition:
		return r.shardedPartition(), nil
	case PresetUnsafeSpec:
		return r.unsafeSpec()
	}
	return r.generated(), nil
}

// generated is PresetGenerated: GenerateScenario's faults, closed by
// 8s, against 30 requests spread across the fault window on every
// shard, so requests commit while links drop, frames mutate and
// processes churn.
func (r *RunState) generated() *schedule {
	const requests, faultEnd = 30, 8 * time.Second
	run := r.Config
	sch := &schedule{
		Scenario: GenerateScenario(r.cfg, r.seed, run.Faults, true, faultEnd),
		settle:   18 * time.Second,
		horizon:  28 * time.Second,
		slice:    500 * time.Millisecond,
	}
	if run.Protocol.smr() {
		gap := faultEnd / time.Duration(requests+1)
		for i := 1; i <= requests; i++ {
			for s := 0; s < run.Shards; s++ {
				sch.submits = append(sch.submits, submission{at: time.Duration(i) * gap, shard: s, req: &wire.Request{
					Client: uint64(1 + (i-1)%3),
					Seq:    uint64(1 + (i-1)/3),
					Op:     []byte(fmt.Sprintf("set k%d v%d", i, i)),
				}})
			}
		}
	}
	return sch
}

// Restarted reports whether p crashes and later restarts in this
// scenario.
func (s *Scenario) Restarted(p ids.ProcessID) bool {
	for _, c := range s.Crashes {
		if c.Proc == p && c.RestartAt > 0 {
			return true
		}
	}
	return false
}

// CrashedForever reports whether p crashes and never restarts.
func (s *Scenario) CrashedForever(p ids.ProcessID) bool {
	for _, c := range s.Crashes {
		if c.Proc == p && c.RestartAt == 0 {
			return true
		}
	}
	return false
}

// GenerateScenario derives the fault schedule for one seed; with
// restartable false every crash is permanent. The same
// (cfg, seed, classes, restartable, faultEnd) always produces the same
// scenario: all randomness flows from one source, and filters that need
// randomness at run time get private sources derived from the seed.
func GenerateScenario(cfg ids.Config, seed int64, classes []FaultClass, restartable bool, faultEnd time.Duration) *Scenario {
	if len(classes) == 0 {
		classes = AllFaults()
	}
	rng := rand.New(rand.NewSource(seed))
	sc := &Scenario{Seed: seed, Faulty: ids.NewProcSet(), FaultEnd: faultEnd}

	if cfg.F == 0 {
		sc.Filter = adversary.Chain()
		sc.Desc = []string{"no faults (f=0)"}
		return sc
	}

	// Choose 1..f faulty processes.
	nFaulty := 1 + rng.Intn(cfg.F)
	perm := rng.Perm(cfg.N)
	var faulty []ids.ProcessID
	for _, i := range perm[:nFaulty] {
		p := ids.ProcessID(i + 1)
		faulty = append(faulty, p)
		sc.Faulty.Add(p)
	}
	sort.Slice(faulty, func(i, j int) bool { return faulty[i] < faulty[j] })

	// One fault class per faulty process, each inside its own window.
	var filters []sim.Filter
	for _, p := range faulty {
		class := classes[rng.Intn(len(classes))]
		from := time.Duration(rng.Int63n(int64(faultEnd / 2)))
		until := from + faultEnd/8 + time.Duration(rng.Int63n(int64(faultEnd-from-faultEnd/8)))
		one := ids.NewProcSet(p)
		window := func(inner sim.Filter) sim.Filter {
			return &adversary.Window{From: from, Until: until, Inner: inner}
		}
		switch class {
		case FaultCrash:
			plan := CrashPlan{Proc: p, At: from}
			if restartable && rng.Intn(2) == 0 {
				plan.RestartAt = until
				sc.Desc = append(sc.Desc, fmt.Sprintf("%s: crash at %s, restart at %s", p, from, until))
			} else {
				sc.Desc = append(sc.Desc, fmt.Sprintf("%s: crash at %s", p, from))
			}
			sc.Crashes = append(sc.Crashes, plan)
		case FaultCrashRestart:
			plan := CrashPlan{Proc: p, At: from, Hard: true}
			if restartable {
				plan.RestartAt = until
				sc.Desc = append(sc.Desc, fmt.Sprintf("%s: hard crash at %s, recover at %s", p, from, until))
			} else {
				sc.Desc = append(sc.Desc, fmt.Sprintf("%s: hard crash at %s (protocol not restartable)", p, from))
			}
			sc.Crashes = append(sc.Crashes, plan)
		case FaultOmission:
			k := 1 + rng.Intn(4)
			filters = append(filters, window(adversary.NewRepeatedOmission(one, k)))
			sc.Desc = append(sc.Desc, fmt.Sprintf("%s: omission 1/%d in [%s,%s)", p, k, from, until))
		case FaultBurst:
			on := 100*time.Millisecond + time.Duration(rng.Int63n(int64(300*time.Millisecond)))
			off := 100*time.Millisecond + time.Duration(rng.Int63n(int64(300*time.Millisecond)))
			filters = append(filters, window(&adversary.BurstOmission{Faulty: one, On: on, Off: off}))
			sc.Desc = append(sc.Desc, fmt.Sprintf("%s: burst omission %s on/%s off in [%s,%s)", p, on, off, from, until))
		case FaultPartition:
			filters = append(filters, window(&adversary.Partition{Group: one}))
			sc.Desc = append(sc.Desc, fmt.Sprintf("%s: partitioned in [%s,%s)", p, from, until))
		case FaultTiming:
			max := 50*time.Millisecond + time.Duration(rng.Int63n(int64(250*time.Millisecond)))
			filters = append(filters, window(adversary.NewJitterDelay(one, max, rng.Int63())))
			sc.Desc = append(sc.Desc, fmt.Sprintf("%s: jitter delay <%s in [%s,%s)", p, max, from, until))
		case FaultIncreasingTiming:
			step := 100*time.Millisecond + time.Duration(rng.Int63n(int64(200*time.Millisecond)))
			filters = append(filters, window(&adversary.SteppedDelay{Faulty: one, Step: step, Every: 500 * time.Millisecond}))
			sc.Desc = append(sc.Desc, fmt.Sprintf("%s: stepped delay +%s/500ms in [%s,%s)", p, step, from, until))
		case FaultDuplicate:
			k := 1 + rng.Intn(3)
			filters = append(filters, window(&adversary.Duplicator{Faulty: one, Every: k}))
			sc.Desc = append(sc.Desc, fmt.Sprintf("%s: duplicate 1/%d in [%s,%s)", p, k, from, until))
		case FaultMutate:
			k := 1 + rng.Intn(3)
			filters = append(filters, window(&adversary.Mutator{
				Faulty: one, Every: k, Rng: rand.New(rand.NewSource(rng.Int63())),
			}))
			sc.Desc = append(sc.Desc, fmt.Sprintf("%s: mutate 1/%d in [%s,%s)", p, k, from, until))
		}
	}
	sc.Filter = adversary.Chain(filters...)
	return sc
}
