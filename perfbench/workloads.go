package main

import (
	"fmt"

	"mira/internal/cmp"
	"mira/internal/collective"
	"mira/internal/core"
	"mira/internal/exp"
	"mira/internal/scenario"
)

// workload is one named batch of scenarios. Every scenario is derived
// from the workload seed alone, so the same seed always yields the same
// batch.
type workload struct {
	name  string
	build func(seed int64) []scenario.Scenario
}

var workloads = []workload{
	{"paper-sweep", paperSweep},
	{"large-fabric", largeFabric},
	{"collective-closed", collectiveClosed},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// The paper-sweep trims the quick suite's grid so that one batch takes
// a few seconds, but keeps what matters for host time: the baseline, the
// multi-layered and the express architecture, a rate below and a rate
// above NUCA-UR saturation (UR at 0.25 is the SA-heavy unsaturated
// point), two CMP traces, and the suite's repeat structure.
var (
	paperArchs  = []core.Arch{core.Arch2DB, core.Arch3DM, core.Arch3DME}
	paperRates  = []float64{0.10, 0.25}
	paperTraces = []string{"tpcw", "barnes"}
)

// Paper-sweep size: per architecture, UR runs 3 times, NUCA-UR twice
// and each trace 3 times (Figs. 11a/12a/12d, 11b/12b, 11c/11d/12c), so
// two UR, one NUCA-UR and two trace passes repeat earlier scenarios.
const (
	paperRuns       = 3 * (3*2 + 2*2 + 3*2) // 48
	paperDuplicates = 3 * (2*2 + 1*2 + 2*2) // 30
)

// paperSweep is the quick-suite traffic of Figs. 11a-c and 12a-d in
// the suite's order. Each point carries the seed mirabench would give
// it (exp.SeedFor over the full URRates x Archs or Presented x Archs
// grid), so every scenario here is byte-identical to a quick-suite
// point and repeated figures repeat scenarios exactly.
func paperSweep(seed int64) []scenario.Scenario {
	o := exp.Quick()
	o.Seed = seed
	point := func(i int, a core.Arch, t scenario.Traffic) scenario.Scenario {
		sc := o.Scenario(a)
		sc.Seed = exp.SeedFor(seed, i)
		sc.Traffic = t
		return sc
	}
	sweep := func(kind string) []scenario.Scenario {
		var out []scenario.Scenario
		for ri, rate := range exp.URRates {
			if !contains(paperRates, rate) {
				continue
			}
			for ai, a := range core.Archs {
				if !contains(paperArchs, a) {
					continue
				}
				out = append(out, point(ri*len(core.Archs)+ai, a, scenario.Traffic{Kind: kind, Rate: rate}))
			}
		}
		return out
	}
	var traces []scenario.Scenario
	for wi, name := range cmp.Presented {
		if !contains(paperTraces, name) {
			continue
		}
		for ai, a := range core.Archs {
			if !contains(paperArchs, a) {
				continue
			}
			traces = append(traces, point(wi*len(core.Archs)+ai, a,
				scenario.Traffic{Kind: "trace", Workload: name, TraceCycles: o.TraceCycles}))
		}
	}
	ur, nuca := sweep("ur"), sweep("nuca")
	var out []scenario.Scenario
	for _, fig := range [][]scenario.Scenario{ur, nuca, traces, traces, ur, nuca, traces, ur} {
		out = append(out, fig...)
	}
	return out
}

func contains[T comparable](xs []T, x T) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// largeFabric runs UR at a draining and a saturating rate on two
// 256-router fabrics: a monolithic 16x16 mesh and a 4x4 grid of 4x4
// chips joined by serializing die-to-die links. Auto-sharding splits
// both across the host's cores. The drain window is short: a draining
// run needs a few dozen cycles of it, and whether a sharded run takes
// the early exit varies with the seed, so a long window would make the
// simulated work itself vary from seed to seed.
func largeFabric(seed int64) []scenario.Scenario {
	fabrics := []scenario.Chips{
		{ChipsX: 1, ChipsY: 1, NodesX: 16, NodesY: 16},
		{ChipsX: 4, ChipsY: 4, NodesX: 4, NodesY: 4, D2DLatency: 4, D2DSerCycles: 2},
	}
	var out []scenario.Scenario
	for _, chips := range fabrics {
		for _, rate := range []float64{0.05, 0.3} {
			chips := chips
			out = append(out, scenario.Scenario{
				Arch:    core.Arch2DB.String(),
				Traffic: scenario.Traffic{Kind: "ur", Rate: rate},
				Warmup:  500, Measure: 3000, Drain: 500,
				Seed:   exp.SeedFor(seed, len(out)),
				Shards: -1,
				Chips:  &chips,
			})
		}
	}
	return out
}

// collectiveClosed runs every collective algorithm, closed loop, on a
// monolithic 8x8 mesh and on a 2x2 grid of 4x4 chips with slow
// serializing d2d links. The measure window fits the slowest corner
// (ring allreduce over 8:4 d2d, about 8100 cycles per iteration) with
// room to spare; the faster runs spend the rest of it idle.
func collectiveClosed(seed int64) []scenario.Scenario {
	fabrics := []scenario.Chips{
		{ChipsX: 1, ChipsY: 1, NodesX: 8, NodesY: 8},
		{ChipsX: 2, ChipsY: 2, NodesX: 4, NodesY: 4, D2DLatency: 8, D2DSerCycles: 4},
	}
	var out []scenario.Scenario
	for _, alg := range collective.Algorithms() {
		for _, chips := range fabrics {
			chips := chips
			out = append(out, scenario.Scenario{
				Arch: core.Arch2DB.String(),
				Traffic: scenario.Traffic{Kind: "collective", Collective: &scenario.Collective{
					Algorithm: string(alg), MessageFlits: 16, Iterations: 6,
				}},
				Measure: 60000, Drain: 1000,
				Seed:  exp.SeedFor(seed, len(out)),
				Chips: &chips,
			})
		}
	}
	return out
}
