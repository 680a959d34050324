package noc

import (
	"math/rand"
	"testing"
)

// runMetered is runModal with an engine meter attached before the first
// step; it returns the ejection stream, the final counters and the
// meter snapshot after the run.
func runMetered(t *testing.T, cfg Config, mode StepMode, rate float64, cycles int64) ([]ejection, Counters, EngineSnapshot) {
	t.Helper()
	cfg.Mode = mode
	net := NewNetwork(cfg)
	m := net.EnableEngineMeter()
	var stream []ejection
	net.SetEjectHandler(func(p *Packet) {
		stream = append(stream, ejection{id: p.ID, ejected: p.EjectedAt, injected: p.InjectedAt, hops: p.Hops})
	})
	gen := bernoulli(cfg.Topo, rate, 4, Data)
	rng := rand.New(rand.NewSource(cfg.Seed))
	for cycle := int64(0); cycle < cycles; cycle++ {
		for _, spec := range gen.Generate(cycle, rng, nil) {
			if _, err := net.Enqueue(spec); err != nil {
				t.Fatal(err)
			}
		}
		net.Step()
	}
	for i := int64(0); i < 20000 && !net.Idle(); i++ {
		net.Step()
	}
	return stream, net.TotalCounters(), m.Snapshot()
}

// TestEngineMeterPurity pins the out-of-band contract: a run with an
// engine meter attached must produce the exact ejection stream and
// counters of the unmetered run, in every step mode. The meter only
// reads clocks; nothing it does may steer simulation.
func TestEngineMeterPurity(t *testing.T) {
	for _, mode := range []StepMode{StepActivity, StepFullScan} {
		cfg := cfg2D(2)
		cfg.Seed = 42
		ref, refCnt, _ := runModal(t, cfg, mode, 0.2, 4, 800)
		got, gotCnt, _ := runMetered(t, cfg, mode, 0.2, 800)
		if len(ref) == 0 {
			t.Fatal("no traffic delivered; test is vacuous")
		}
		if len(got) != len(ref) {
			t.Fatalf("mode=%v: metered ejection stream diverges: %d vs %d packets", mode, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("mode=%v: ejection %d diverges: metered %+v, bare %+v", mode, i, got[i], ref[i])
			}
		}
		if gotCnt != refCnt {
			t.Fatalf("mode=%v: counters diverge:\nmetered %+v\nbare    %+v", mode, gotCnt, refCnt)
		}
	}
}

// TestEngineMeterSequential checks the snapshot shape: one
// whole-network lane carrying all the step time, and no crossings.
func TestEngineMeterSequential(t *testing.T) {
	cfg := cfg2D(2)
	cfg.Seed = 7
	_, _, snap := runMetered(t, cfg, StepActivity, 0.2, 400)
	if snap.Cycles == 0 || snap.StepNs <= 0 {
		t.Fatalf("no metered cycles: %+v", snap)
	}
	if len(snap.Shards) != 1 {
		t.Fatalf("want 1 lane stat, got %d", len(snap.Shards))
	}
	lane := snap.Shards[0]
	if lane.BusyNs != snap.StepNs || lane.Cycles != snap.Cycles || lane.Routers != cfg.Topo.NumNodes() {
		t.Fatalf("lane accounting off: %+v", snap)
	}
	if len(snap.Mailbox) != 0 {
		t.Fatalf("run recorded crossings: %+v", snap.Mailbox)
	}
}
