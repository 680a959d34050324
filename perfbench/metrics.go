package main

import (
	"sort"
	"time"
)

// metric is one reported value, in the shape the result line prints.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd is the untraced result: the median of each batch metric over
// the run's batches, and of set-up time over the set-up passes.
// peakRSSMB is the process high-water mark after all of them.
func endToEnd(bs []batch, setups []time.Duration, peakRSSMB float64, okFrac float64) map[string]metric {
	med := func(f func(b batch) float64) float64 { return median(collect(bs, f)) }
	setupS := make([]float64, len(setups))
	for i, d := range setups {
		setupS[i] = d.Seconds()
	}
	return map[string]metric{
		"cpu_s":   {med(func(b batch) float64 { return b.cpu.Seconds() }), "s"},
		"setup_s": {median(setupS), "s"},
		"sim_s":   {med(func(b batch) float64 { return b.sim.Seconds() }), "s"},
		"router_cycles_per_s": {med(func(b batch) float64 {
			return float64(b.routerCycles) / b.sim.Seconds()
		}), "1/s"},
		"alloc_mb":    {med(func(b batch) float64 { return float64(b.allocBytes) / 1e6 }), "MB"},
		"peak_rss_mb": {peakRSSMB, "MB"},
		"ok_frac":     {okFrac, "ratio"},
	}
}

// perLayer is the traced result, all taken from one traced batch (the
// one with the median CPU time) so that its parts add up:
// trace.setup_s + trace.sim_s + scenario.batch_overhead_s =
// trace.cpu_s. Like the end-to-end metrics these are CPU time; the
// engine meter's and the hook timers' figures (noc.step_s, noc.shard_*,
// traffic.gen_s, collective.on_deliver_s) and cmp.trace_gen_s are wall
// time. overheadFrac compares each traced batch's CPU time with
// the untraced batch run next to it.
func perLayer(b batch, overheadFrac float64, duplicates int, traceGen time.Duration, tracePackets int) map[string]metric {
	sum := func(f func(l *layers) float64) float64 {
		var t float64
		for _, r := range b.runs {
			if r.collected != nil {
				t += f(r.collected)
			}
		}
		return t
	}
	secs := func(f func(l *layers) time.Duration) float64 {
		return sum(func(l *layers) float64 { return f(l).Seconds() })
	}
	count := func(f func(l *layers) int64) float64 {
		return sum(func(l *layers) float64 { return float64(f(l)) })
	}
	elab := func(class string) float64 {
		var t time.Duration
		for _, r := range b.runs {
			if kindClass(r.kind) == class {
				t += r.setup
			}
		}
		return t.Seconds()
	}
	step := secs(func(l *layers) time.Duration { return l.step })
	saReqs := count(func(l *layers) int64 { return l.saReqs })
	return map[string]metric{
		"trace.overhead_frac":             {overheadFrac, "ratio"},
		"trace.wall_s":                    {b.wall.Seconds(), "s"},
		"trace.cpu_s":                     {b.cpu.Seconds(), "s"},
		"trace.setup_s":                   {b.setup.Seconds(), "s"},
		"trace.sim_s":                     {b.sim.Seconds(), "s"},
		"scenario.elaborate_s.synthetic":  {elab("synthetic"), "s"},
		"scenario.elaborate_s.trace":      {elab("trace"), "s"},
		"scenario.elaborate_s.collective": {elab("collective"), "s"},
		"scenario.duplicate_runs":         {float64(duplicates), "count"},
		"scenario.batch_overhead_s":       {(b.cpu - b.setup - b.sim).Seconds(), "s"},
		"cmp.trace_gen_s":                 {traceGen.Seconds(), "s"},
		"cmp.trace_packets":               {float64(tracePackets), "count"},
		"noc.step_s":                      {step, "s"},
		"noc.ns_per_router_cycle":         {ratio(step*1e9, count(func(l *layers) int64 { return l.routerCycles })), "ns"},
		"noc.cycles":                      {count(func(l *layers) int64 { return l.cycles }), "count"},
		"noc.sa_reqs":                     {saReqs, "count"},
		"noc.sa_grant_ratio":              {ratio(count(func(l *layers) int64 { return l.saGrants }), saReqs), "ratio"},
		"noc.flit_hops":                   {count(func(l *layers) int64 { return l.hops }), "count"},
		"noc.shard_busy_s":                {secs(func(l *layers) time.Duration { return total(l.shardBusy) }), "s"},
		"noc.shard_barrier_s":             {secs(func(l *layers) time.Duration { return l.shardBarrier }), "s"},
		"noc.shard_drain_s":               {secs(func(l *layers) time.Duration { return l.shardDrain }), "s"},
		"noc.shard_imbalance":             {shardImbalance(b), "ratio"},
		"noc.mailbox_flits":               {count(func(l *layers) int64 { return l.mailboxFlits }), "count"},
		"noc.empty_drain_cycles":          {count(func(l *layers) int64 { return l.emptyDrainCycles }), "count"},
		"noc.empty_cycles":                {count(func(l *layers) int64 { return l.emptyCycles }), "count"},
		"traffic.gen_s":                   {secs(func(l *layers) time.Duration { return l.gen }), "s"},
		"collective.on_deliver_s":         {secs(func(l *layers) time.Duration { return l.deliver }), "s"},
		"collective.deliveries":           {count(func(l *layers) int64 { return l.deliveries }), "count"},
		"go.gc_cycles":                    {float64(b.gcCycles), "count"},
		"go.gc_pause_s":                   {b.gcPause.Seconds(), "s"},
	}
}

// medianBatch returns the batch with the median CPU time (the lower
// middle one of an even count).
func medianBatch(bs []batch) batch {
	s := append([]batch(nil), bs...)
	sort.Slice(s, func(i, j int) bool { return s[i].cpu < s[j].cpu })
	return s[(len(s)-1)/2]
}

// kindClass groups traffic kinds the way scenario.elaborate_s splits
// elaboration time: CMP trace generation, closed-loop collectives, and
// every synthetic pattern.
func kindClass(kind string) string {
	switch kind {
	case "trace", "collective":
		return kind
	}
	return "synthetic"
}

// shardImbalance is the max/mean ratio of per-shard busy time, summed
// over the batch's sharded runs; 1 when no run was sharded.
func shardImbalance(b batch) float64 {
	var busy []time.Duration
	for _, r := range b.runs {
		if r.collected == nil {
			continue
		}
		for i, d := range r.collected.shardBusy {
			if i == len(busy) {
				busy = append(busy, 0)
			}
			busy[i] += d
		}
	}
	var max time.Duration
	for _, d := range busy {
		if d > max {
			max = d
		}
	}
	if len(busy) == 0 || total(busy) == 0 {
		return 1
	}
	return float64(max) * float64(len(busy)) / float64(total(busy))
}

func total(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func collect(bs []batch, f func(b batch) float64) []float64 {
	out := make([]float64, len(bs))
	for i, b := range bs {
		out[i] = f(b)
	}
	return out
}

// median of xs (0 for none), averaging the middle pair of an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
