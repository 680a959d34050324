package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"mira/internal/collective"
	"mira/internal/noc"
	"mira/internal/scenario"
)

// batch is one timed pass of scenario.RunBatch over a workload, with one
// worker. Run i's host time splits exactly into elaboration (previous
// OnDone -> OnStart) and simulation (OnStart -> OnDone); whatever is
// left of the batch's time is its own overhead.
//
// cpu, setup and sim are CPU time of the whole process (user + system,
// every thread, so GC and shard workers count), not wall time: on a
// virtual machine whose hypervisor steals a varying share of the host,
// wall time swings by half between identical batches while CPU time
// does not. wall is kept for the record and the traced run.
type batch struct {
	wall, cpu, setup, sim time.Duration
	routerCycles          int64 // simulated cycles x routers, summed over runs
	allocBytes            uint64
	gcCycles              uint32
	gcPause               time.Duration
	runs                  []runRecord
}

type runRecord struct {
	kind      string // traffic kind
	setup     time.Duration
	digest    string // result (+ collective report) digest
	failure   string // why the run counts as failed, "" if it did not
	collected *layers
}

// layers holds one run's per-layer counters, collected by a traced
// batch through the Sim hooks and the engine meter.
type layers struct {
	step                   time.Duration
	cycles, routerCycles   int64
	saReqs, saGrants, hops int64
	shardBusy              []time.Duration
	shardBarrier           time.Duration
	shardDrain             time.Duration
	mailboxFlits           int64
	emptyCycles            int64
	emptyDrainCycles       int64
	gen, deliver           time.Duration
	deliveries             int64
}

// measure runs the scenarios once. When traced is set, every run's Sim
// is instrumented from outside (wrapped Gen/OnEject/OnCycle plus the
// engine meter); the wrappers only read clocks and counters, so results
// and their digests must not change.
func measure(scs []scenario.Scenario, traced bool) batch {
	b := batch{runs: make([]runRecord, len(scs))}
	for i, sc := range scs {
		b.runs[i].kind = sc.Traffic.Kind
	}
	reports := make([]*collective.Report, len(scs))
	// Every batch starts from a collected heap, so the GC cycles it
	// triggers, and the runs they land in, repeat from batch to batch.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	var cur *scenario.Elaboration
	var l *layers
	start, cpuStart := time.Now(), cpuTime()
	last := cpuStart
	opts := scenario.BatchOptions{
		Workers: 1,
		OnStart: func(i int, e *scenario.Elaboration) {
			now := cpuTime()
			b.runs[i].setup = now - last
			b.setup += now - last
			cur = e
			if traced {
				l = instrument(e)
				b.runs[i].collected = l
			}
			last = cpuTime()
		},
		OnDone: func(r scenario.BatchResult) {
			now := cpuTime()
			if cur != nil { // nil when the run failed to elaborate
				b.sim += now - last
				rc := cur.Net.Cycle() * int64(cur.Config.Topo.NumNodes())
				b.routerCycles += rc
				if c := cur.Collective; c != nil {
					rep := c.Report()
					reports[r.Index] = &rep
				}
				if l != nil {
					l.finish(cur, rc)
				}
			}
			cur, l = nil, nil
			last = cpuTime()
		},
	}
	res := scenario.RunBatch(context.Background(), scs, opts)
	b.wall, b.cpu = time.Since(start), cpuTime()-cpuStart
	runtime.ReadMemStats(&ms1)
	b.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	b.gcCycles = ms1.NumGC - ms0.NumGC
	b.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)

	for i, r := range res {
		b.runs[i].digest = digest(r.Result, reports[i])
		b.runs[i].failure = runFailure(r, scs[i], reports[i])
	}
	return b
}

// setupPass elaborates every scenario once, outside any batch, and
// returns the CPU time that took. It starts from a collected heap and
// drops each elaboration at once, so passes repeat closely, which the
// in-batch split (where elaboration shares GC cycles with the previous
// simulation's garbage) does not. An elaboration error is not reported
// here: the same scenario fails its run in every batch.
func setupPass(scs []scenario.Scenario) time.Duration {
	runtime.GC()
	t0 := cpuTime()
	for _, sc := range scs {
		_, _ = sc.Elaborate()
	}
	return cpuTime() - t0
}

// cpuTime is the CPU time the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runFailure says why a run failed, or "" if it did not: an error, a
// canceled or stalled simulation, or a collective that did not finish.
func runFailure(r scenario.BatchResult, sc scenario.Scenario, rep *collective.Report) string {
	switch {
	case r.Err != "":
		return r.Err
	case r.Result.Canceled:
		return "canceled"
	case r.Result.Stalled:
		return "stalled"
	case sc.Traffic.Kind == "collective" && (rep == nil || rep.Completed < rep.Iterations):
		return "collective incomplete"
	}
	return ""
}

// digest hashes the run's serialized result and, for collective
// traffic, its completion report.
func digest(res noc.Result, rep *collective.Report) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	if err := enc.Encode(res); err != nil {
		panic(fmt.Sprintf("perfbench: encoding result: %v", err))
	}
	if rep != nil {
		if err := enc.Encode(rep); err != nil {
			panic(fmt.Sprintf("perfbench: encoding collective report: %v", err))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// scenarioHash is the content hash of a scenario's JSON form.
func scenarioHash(sc scenario.Scenario) string {
	data, err := json.Marshal(sc)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encoding scenario: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])[:16]
}

// instrument wraps the elaborated Sim's hooks with timers and counters
// and attaches the engine meter.
func instrument(e *scenario.Elaboration) *layers {
	l := &layers{}
	e.Net.EnableEngineMeter()
	gen := e.Sim.Gen
	e.Sim.Gen = noc.GeneratorFunc(func(cycle int64, rng *rand.Rand, specs []noc.Spec) []noc.Spec {
		t0 := time.Now()
		specs = gen.Generate(cycle, rng, specs)
		l.gen += time.Since(t0)
		return specs
	})
	if onEject := e.Sim.OnEject; onEject != nil {
		e.Sim.OnEject = func(pkt *noc.Packet) {
			t0 := time.Now()
			onEject(pkt)
			l.deliver += time.Since(t0)
			l.deliveries++
		}
	}
	measureEnd := e.Sim.Params.Warmup + e.Sim.Params.Measure
	onCycle := e.Sim.OnCycle
	e.Sim.OnCycle = func(cycle int64) {
		if onCycle != nil {
			onCycle(cycle)
		}
		if e.Net.BacklogFlits() == 0 {
			l.emptyCycles++
			// OnCycle(c) follows the step of loop cycle c-1, so c >
			// measureEnd is a step taken after the measure window.
			if cycle > measureEnd {
				l.emptyDrainCycles++
			}
		}
	}
	return l
}

// finish reads the run's engine meter and switching counters.
func (l *layers) finish(e *scenario.Elaboration, routerCycles int64) {
	snap := e.Net.Meter().Snapshot()
	l.step = time.Duration(snap.StepNs)
	l.cycles = e.Net.Cycle()
	l.routerCycles = routerCycles
	c := e.Net.TotalCounters()
	l.saReqs, l.saGrants, l.hops = c.SAReqs, c.SAGrants, c.LinkFlits
	if len(snap.Shards) > 1 {
		l.shardBusy = make([]time.Duration, len(snap.Shards))
		for i, s := range snap.Shards {
			l.shardBusy[i] = time.Duration(s.BusyNs)
			l.shardBarrier += time.Duration(s.BarrierNs)
			l.shardDrain += time.Duration(s.DrainNs)
		}
		for _, m := range snap.Mailbox {
			l.mailboxFlits += m.Flits
		}
	}
}
