package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"mira/internal/scenario"
)

func TestWorkloadsDeterministicInSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := w.build(7), w.build(7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two builds with seed 7 differ", w.name)
		}
		c := w.build(8)
		if len(c) != len(a) {
			t.Fatalf("%s: seed changes the batch size: %d vs %d", w.name, len(c), len(a))
		}
		for i := range a {
			if scenarioHash(a[i]) == scenarioHash(c[i]) {
				t.Errorf("%s: run %d is the same scenario for seeds 7 and 8", w.name, i)
			}
			if err := a[i].Validate(); err != nil {
				t.Errorf("%s: run %d: %v", w.name, i, err)
			}
		}
	}
}

func TestPaperSweepDuplicates(t *testing.T) {
	scs := paperSweep(42)
	hashes := make([]string, len(scs))
	for i, sc := range scs {
		hashes[i] = scenarioHash(sc)
	}
	if len(scs) != paperRuns || paperRuns != 48 {
		t.Errorf("paper-sweep has %d runs, want %d (stated 48)", len(scs), paperRuns)
	}
	if got := duplicates(hashes); got != paperDuplicates || paperDuplicates != 30 {
		t.Errorf("paper-sweep has %d duplicate runs, want %d (stated 30)", got, paperDuplicates)
	}
	for _, w := range workloads[1:] {
		scs := w.build(42)
		hashes := make([]string, len(scs))
		for i, sc := range scs {
			hashes[i] = scenarioHash(sc)
		}
		if got := duplicates(hashes); got != 0 {
			t.Errorf("%s has %d duplicate runs, want 0", w.name, got)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json that names metrics.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var built []string
	for _, w := range workloads {
		built = append(built, w.name)
	}
	if !reflect.DeepEqual(names, built) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark builds %v", names, built)
	}

	b := batch{wall: 3 * time.Second, cpu: 3 * time.Second, setup: time.Second, sim: time.Second, routerCycles: 1000,
		runs: []runRecord{{kind: "ur", collected: &layers{shardBusy: []time.Duration{1, 2}}}}}
	compare := func(what string, got map[string]metric, want []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(want) {
			t.Errorf("%s: printed %d metrics, BENCHMARK.json lists %d", what, len(got), len(want))
		}
		for _, m := range want {
			g, ok := got[m.Name]
			if !ok {
				t.Errorf("%s: %s is in BENCHMARK.json but not printed", what, m.Name)
			} else if g.Unit != m.Unit {
				t.Errorf("%s: %s printed in %q, BENCHMARK.json says %q", what, m.Name, g.Unit, m.Unit)
			}
		}
	}
	compare("end_to_end", endToEnd([]batch{b}, []time.Duration{time.Second}, 10, 1), spec.EndToEnd)
	compare("per_layer", perLayer(b, 0.1, 2, time.Second, 5), spec.PerLayer)
}

func TestCheckerCountsEachFailingRunOnce(t *testing.T) {
	hashes := []string{"a", "b", "a"}
	c := &checker{hashes: hashes, reference: []string{"a x", "b y", "a x"}}
	c.check(batch{runs: []runRecord{{digest: "x"}, {digest: "y"}, {digest: "x"}}})
	if c.failed != 0 || c.attempted != 3 {
		t.Fatalf("clean batch: failed %d of %d", c.failed, c.attempted)
	}
	// Run 2 repeats run 0's scenario with another result and differs
	// from the first batch and the reference: one failure, not three.
	c.check(batch{runs: []runRecord{{digest: "x"}, {digest: "y", failure: "stalled"}, {digest: "z"}}})
	if c.failed != 2 || c.attempted != 6 {
		t.Fatalf("failed %d of %d, want 2 of 6", c.failed, c.attempted)
	}
	if got := c.okFrac(); math.Abs(got-4.0/6) > 1e-12 {
		t.Errorf("okFrac = %v", got)
	}
}

func TestTracedBatchMatchesUntraced(t *testing.T) {
	chips := &scenario.Chips{ChipsX: 2, ChipsY: 2, NodesX: 4, NodesY: 4, D2DLatency: 4, D2DSerCycles: 2}
	scs := []scenario.Scenario{
		{Arch: "2DB", Traffic: scenario.Traffic{Kind: "ur", Rate: 0.05}, Warmup: 100, Measure: 400, Drain: 400,
			Seed: 1, Shards: 2, Chips: chips},
		{Arch: "2DB", Traffic: scenario.Traffic{Kind: "collective", Collective: &scenario.Collective{
			Algorithm: "ring-allreduce", MessageFlits: 4}}, Measure: 3000, Drain: 100, Seed: 2, Chips: chips},
	}
	u, tr := measure(scs, false), measure(scs, true)
	for i := range scs {
		if u.runs[i].failure != "" || tr.runs[i].failure != "" {
			t.Fatalf("run %d failed: %q / %q", i, u.runs[i].failure, tr.runs[i].failure)
		}
		if u.runs[i].digest != tr.runs[i].digest {
			t.Errorf("run %d: traced digest %s, untraced %s", i, tr.runs[i].digest, u.runs[i].digest)
		}
	}
	for _, b := range []batch{u, tr} {
		if b.setup <= 0 || b.sim <= 0 || b.setup+b.sim > b.cpu {
			t.Errorf("setup %v + sim %v does not fit in the batch's %v", b.setup, b.sim, b.cpu)
		}
	}
	ur, coll := tr.runs[0].collected, tr.runs[1].collected
	if len(ur.shardBusy) != 2 || ur.mailboxFlits == 0 || ur.step <= 0 {
		t.Errorf("sharded run: %d shards, %d mailbox flits, step %v", len(ur.shardBusy), ur.mailboxFlits, ur.step)
	}
	// The collective finishes inside its measure window, and the
	// network is then idle, so no step is taken after the window.
	if coll.emptyDrainCycles != 0 {
		t.Errorf("collective: %d empty drain cycles, want 0", coll.emptyDrainCycles)
	}
	if coll.deliveries == 0 || coll.emptyCycles == 0 {
		t.Errorf("collective: %d deliveries, %d empty cycles", coll.deliveries, coll.emptyCycles)
	}
}

func TestDumpReadsBackAsBatch(t *testing.T) {
	path := t.TempDir() + "/batch.json"
	for _, w := range workloads {
		scs := w.build(3)
		if err := writeScenarios(path, scs); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := scenario.DecodeBatch(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, scs) {
			t.Errorf("%s: dumped batch reads back differently", w.name)
		}
	}
}
