package scenario

import (
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

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

// runAlone is sc's Result JSON from its own Elaborate/Sim.Run, outside
// any batch or memo.
func runAlone(t *testing.T, sc Scenario) string {
	t.Helper()
	e, err := sc.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(e.Sim.Run(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestRunBatchMemoContract pins the batch memo's hook contract on
// [A, B, A with shards 4, A with observe, A]. At workers 1 three
// simulations run (A, B and the observed A, which is never memoized),
// so OnStart fires three times; at workers 4 the repeats of A may start
// before A finishes and then simulate themselves, so it fires three to
// five times. OnDone fires once per index, every entry's result is
// byte-identical to its scenario run alone, and the outputs do not
// depend on the worker count.
func TestRunBatchMemoContract(t *testing.T) {
	a, b := ur(), ur()
	b.Seed = 7
	aShards, aObserved := a, a
	aShards.Shards = 4
	aObserved.Observe = &Observe{}
	scs := []Scenario{a, b, aShards, aObserved, a}
	alone := map[int64]string{a.Seed: runAlone(t, a), b.Seed: runAlone(t, b)}

	var outputs []string
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		starts := 0
		done := make([]int, len(scs))
		res := RunBatch(context.Background(), scs, BatchOptions{
			Workers: workers,
			OnStart: func(int, *Elaboration) {
				mu.Lock()
				starts++
				mu.Unlock()
			},
			OnDone: func(r BatchResult) {
				mu.Lock()
				done[r.Index]++
				mu.Unlock()
			},
		})
		if maxStarts := map[int]int{1: 3, 4: 5}[workers]; starts < 3 || starts > maxStarts {
			t.Errorf("workers=%d: OnStart fired %d times, want 3 to %d simulations", workers, starts, maxStarts)
		}
		for i, n := range done {
			if n != 1 {
				t.Errorf("workers=%d: OnDone fired %d times for index %d, want once", workers, n, i)
			}
		}
		for i, r := range res {
			if r.Index != i || !reflect.DeepEqual(r.Scenario, scs[i]) || r.Err != "" {
				t.Fatalf("workers=%d: entry %d is index %d, scenario %+v, err %q", workers, i, r.Index, r.Scenario, r.Err)
			}
			data, err := json.Marshal(r.Result)
			if err != nil {
				t.Fatal(err)
			}
			if want := alone[scs[i].Seed]; string(data) != want {
				t.Errorf("workers=%d: entry %d result differs from its scenario run alone:\n%s\n%s", workers, i, data, want)
			}
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, string(data))
	}
	if outputs[0] != outputs[1] {
		t.Error("batch output differs between workers 1 and 4")
	}
}

// TestRunBatchMemoFailedLeader: a leader whose generator panics does
// not stand in for its duplicate, which simulates itself. The first
// simulation to start panics; at workers 2 its duplicate runs alongside
// it.
func TestRunBatchMemoFailedLeader(t *testing.T) {
	a := ur()
	want := runAlone(t, a)
	for _, workers := range []int{1, 2} {
		var mu sync.Mutex
		starts := 0
		res := RunBatch(context.Background(), []Scenario{a, a}, BatchOptions{
			Workers: workers,
			OnStart: func(i int, e *Elaboration) {
				mu.Lock()
				starts++
				first := starts == 1
				mu.Unlock()
				if !first {
					return
				}
				gen := e.Sim.Gen
				e.Sim.Gen = noc.GeneratorFunc(func(cycle int64, rng *rand.Rand, specs []noc.Spec) []noc.Spec {
					if cycle == 120 {
						panic("injected generator fault")
					}
					return gen.Generate(cycle, rng, specs)
				})
			},
		})
		if starts != 2 {
			t.Errorf("workers=%d: OnStart fired %d times, want 2: the duplicate must run itself", workers, starts)
		}
		failed := 0
		for i, r := range res {
			if strings.Contains(r.Err, "injected generator fault") {
				failed++
				continue
			}
			if r.Err != "" {
				t.Fatalf("workers=%d: entry %d: unexpected error %q", workers, i, r.Err)
			}
			data, err := json.Marshal(r.Result)
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != want {
				t.Errorf("workers=%d: entry %d differs from the scenario run alone:\n%s\n%s", workers, i, data, want)
			}
		}
		if failed != 1 {
			t.Errorf("workers=%d: %d entries report the panic, want exactly the leader", workers, failed)
		}
	}
}

// TestRunBatchDuplicateTimeouts: two identical runs that exceed the
// per-run timeout run side by side at workers 2, so the batch takes
// about one timeout, not two; both report Canceled.
func TestRunBatchDuplicateTimeouts(t *testing.T) {
	const timeout = 300 * time.Millisecond
	var mu sync.Mutex
	starts := 0
	begin := time.Now()
	res := RunBatch(context.Background(), []Scenario{longUR(), longUR()}, BatchOptions{
		Workers: 2,
		Timeout: timeout,
		OnStart: func(int, *Elaboration) {
			mu.Lock()
			starts++
			mu.Unlock()
		},
	})
	if elapsed := time.Since(begin); elapsed >= 2*timeout {
		t.Errorf("batch took %v, want under %v: the duplicate waited for the first run", elapsed, 2*timeout)
	}
	if starts != 2 {
		t.Errorf("OnStart fired %d times, want 2", starts)
	}
	for i, r := range res {
		if r.Err != "" || !r.Result.Canceled {
			t.Errorf("entry %d: err %q, canceled %v; want a canceled partial result", i, r.Err, r.Result.Canceled)
		}
	}
}
