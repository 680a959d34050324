package noc

import (
	"sync/atomic"
	"time"
)

// EngineMeter instruments the simulator engine itself: how many cycles
// it has stepped and how much host wall-clock time those steps took. It
// is strictly out-of-band: the meter only reads clocks and counts work
// that already happened, never feeds anything back into simulation
// state, so results are bit-identical with a meter attached or not
// (pinned by TestEngineMeterPurity and the obs-level determinism
// suite). Detached (the default), Step pays one nil-check branch and
// nothing else — the same contract the probe hook keeps.
//
// The totals are atomics because external goroutines (the obs engine
// ticker, HTTP handlers) read them while the step loop writes.
type EngineMeter struct {
	routers int
	cycles  atomic.Int64
	stepNs  atomic.Int64 // wall time inside Network.Step, all cycles
}

// EnableEngineMeter attaches an engine meter to the network and returns
// it; if one is already attached it is returned unchanged. Must not be
// called concurrently with Step — attach before the run starts.
func (n *Network) EnableEngineMeter() *EngineMeter {
	if n.meter == nil {
		n.meter = &EngineMeter{routers: len(n.routers)}
	}
	return n.meter
}

// Meter returns the attached engine meter, or nil when detached.
func (n *Network) Meter() *EngineMeter { return n.meter }

// EngineShardStat is the whole-network stepping lane of an
// EngineSnapshot. The network steps as one lane, so BusyNs equals the
// snapshot's StepNs; DrainNs and BarrierNs are always zero and remain
// only so existing consumers of the snapshot keep compiling.
type EngineShardStat struct {
	Routers   int   `json:"routers"`
	BusyNs    int64 `json:"busy_ns"`
	DrainNs   int64 `json:"drain_ns,omitempty"`
	BarrierNs int64 `json:"barrier_ns,omitempty"`
	Cycles    int64 `json:"cycles"`
}

// EngineMailboxStat is the element type of EngineSnapshot.Mailbox,
// which is always empty: nothing crosses a lane boundary.
type EngineMailboxStat struct {
	Flits int64 `json:"flits"`
}

// EngineSnapshot is a consistent-enough point-in-time copy of the
// meter's totals. Individual counters are read atomically; the set is
// not taken under a global lock (the step loop keeps running), which is
// fine for monitoring — totals are monotone.
type EngineSnapshot struct {
	Cycles int64 `json:"cycles"`
	StepNs int64 `json:"step_ns"`
	// Shards holds exactly one entry covering the whole network.
	Shards []EngineShardStat `json:"shards"`
	// Mailbox is always empty.
	Mailbox []EngineMailboxStat `json:"mailbox,omitempty"`
}

// Snapshot copies the meter's current totals.
func (m *EngineMeter) Snapshot() EngineSnapshot {
	cycles, step := m.cycles.Load(), m.stepNs.Load()
	return EngineSnapshot{
		Cycles: cycles,
		StepNs: step,
		Shards: []EngineShardStat{{Routers: m.routers, BusyNs: step, Cycles: cycles}},
	}
}

// stepSeqMetered wraps the cycle body with whole-cycle timing. Keeping
// stepSeq itself untouched is what keeps the detached hot path at zero
// cost.
func (n *Network) stepSeqMetered(m *EngineMeter) {
	t0 := time.Now()
	n.stepSeq()
	m.stepNs.Add(time.Since(t0).Nanoseconds())
	m.cycles.Add(1)
}
