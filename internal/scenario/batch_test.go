package scenario

import (
	"context"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"mira/internal/noc"
)

// TestRunBatchPanicIsolation: a run that panics becomes that run's
// error — naming its content hash, cycle and repro — while the rest of
// the batch completes and OnDone still fires for every run.
func TestRunBatchPanicIsolation(t *testing.T) {
	good, bad := ur(), ur()
	bad.Seed = 7
	const panicAt = 120
	var done []int
	res := RunBatch(context.Background(), []Scenario{good, bad}, BatchOptions{
		Workers: 1,
		OnStart: func(i int, e *Elaboration) {
			if i != 1 {
				return
			}
			gen := e.Sim.Gen
			e.Sim.Gen = noc.GeneratorFunc(func(cycle int64, rng *rand.Rand, specs []noc.Spec) []noc.Spec {
				if cycle == panicAt {
					panic("injected generator fault")
				}
				return gen.Generate(cycle, rng, specs)
			})
		},
		OnDone: func(r BatchResult) { done = append(done, r.Index) },
	})
	if len(done) != 2 {
		t.Fatalf("OnDone fired for runs %v, want both", done)
	}
	if res[0].Err != "" || res[0].Result.Ejected == 0 {
		t.Fatalf("good run lost: err %q, result %v", res[0].Err, res[0].Result.String())
	}
	data, err := json.Marshal(bad)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"injected generator fault",
		"at cycle 120",
		"| mirasim -scenario -",
		string(data),
	} {
		if !strings.Contains(res[1].Err, want) {
			t.Errorf("bad run's error %q does not mention %q", res[1].Err, want)
		}
	}
	if !strings.HasPrefix(res[1].Err, "scenario ") || len(strings.Fields(res[1].Err)[1]) != 16 {
		t.Errorf("bad run's error %q does not lead with a 16-digit content hash", res[1].Err)
	}
}

// TestRunLengthEarlyDrainExit pins the simulated run length of a
// draining run: the network goes idle soon after the measure window
// ends, and Sim.Run stops there (Network.Idle) instead of spending its
// whole drain budget. The exact cycle is specific to the seed.
func TestRunLengthEarlyDrainExit(t *testing.T) {
	sc := Scenario{
		Arch:    "3DM",
		Traffic: Traffic{Kind: "ur", Rate: 0.05},
		Warmup:  1000, Measure: 3000, Drain: 2000, Seed: 5,
	}
	e, err := sc.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	res := e.Sim.Run(context.Background())
	if res.Saturated || res.Ejected != res.Generated {
		t.Fatalf("run did not drain: %v", res.String())
	}
	if !e.Net.Idle() {
		t.Error("run stopped with traffic left in the network")
	}
	if got := e.Net.Cycle(); got != 4033 {
		t.Errorf("run stopped at cycle %d, want 4033 (the drain budget ends at 6000)", got)
	}
}

// TestShardsFieldIgnored: the deprecated shards field is accepted and
// has no effect on the result.
func TestShardsFieldIgnored(t *testing.T) {
	run := func(shards int) string {
		sc := ur()
		sc.Shards = shards
		res, err := sc.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	ref := run(0)
	for _, shards := range []int{-1, 4} {
		if got := run(shards); got != ref {
			t.Errorf("shards=%d result differs from shards=0:\n%s\n%s", shards, got, ref)
		}
	}
}
