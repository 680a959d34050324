package noc

import "testing"

// Probe: determinism of chiplet fabric with SpecSA across step modes.
func TestZZChipletSpecSADeterminism(t *testing.T) {
	run := func(mode StepMode) Result {
		cfg := cfgChiplet(4, 2, true)
		cfg.Seed = 7
		cfg.SpecSA = true
		cfg.Mode = mode
		return shortSim(cfg, bernoulli(cfg.Topo, 0.1, 4, Data))
	}
	ref := run(StepActivity)
	if ref.Generated == 0 || ref.Ejected != ref.Generated {
		t.Fatalf("reference run did not deliver all traffic: %v", ref.String())
	}
	for _, mode := range []StepMode{StepFullScan, StepChecked} {
		got := run(mode)
		if got.AvgLatency != ref.AvgLatency || got.Generated != ref.Generated ||
			got.Ejected != ref.Ejected || got.Counters != ref.Counters {
			t.Fatalf("mode=%v diverges:\n  got %v\n  ref %v", mode, got.String(), ref.String())
		}
	}
}
