package scenario

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"mira/internal/noc"
)

// TestMemoServesCopies: the first caller of a key simulates it, later
// callers are served copies that share no memory with each other or
// with the stored outcome.
func TestMemoServesCopies(t *testing.T) {
	m := NewMemo()
	runs := 0
	run := func() (Outcome, error) {
		runs++
		return Outcome{Result: noc.Result{Ejected: 9, PerRouter: make([]noc.Counters, 4)}}, nil
	}
	const callers = 4
	outs := make([]Outcome, callers)
	for i := range outs {
		out, hit, err := m.do(ur(), run)
		if err != nil {
			t.Fatal(err)
		}
		if hit != (i > 0) {
			t.Errorf("caller %d: hit=%v", i, hit)
		}
		if out.Result.Ejected != 9 {
			t.Errorf("caller %d got %+v", i, out.Result)
		}
		out.Result.PerRouter[0].SAReqs = int64(i + 1)
		outs[i] = out
	}
	if runs != 1 || m.Stats() != (MemoStats{Simulated: 1, Hits: callers - 1}) {
		t.Errorf("%d runs, stats %+v; want 1 run, 1 simulated and %d hits", runs, m.Stats(), callers-1)
	}
	for i, out := range outs {
		if got := out.Result.PerRouter[0].SAReqs; got != int64(i+1) {
			t.Errorf("caller %d's PerRouter was overwritten by another caller (SAReqs %d)", i, got)
		}
	}
}

// TestMemoConcurrentMissesDoNotWait: callers that miss one key at the
// same time each simulate it instead of waiting for one another (each
// run below blocks until both have started), and a later caller is
// served.
func TestMemoConcurrentMissesDoNotWait(t *testing.T) {
	m := NewMemo()
	var started sync.WaitGroup
	started.Add(2)
	run := func() (Outcome, error) {
		started.Done()
		waited := make(chan struct{})
		go func() { started.Wait(); close(waited) }()
		select {
		case <-waited:
		case <-time.After(5 * time.Second):
			return Outcome{}, errors.New("the other caller never started its run: it waited on this one")
		}
		return Outcome{Result: noc.Result{Ejected: 9}}, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := m.do(ur(), run); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if _, hit, _ := m.do(ur(), run); !hit {
		t.Error("a later caller was not served")
	}
	if got := m.Stats(); got != (MemoStats{Simulated: 2, Hits: 1}) {
		t.Errorf("stats %+v, want 2 simulated and 1 hit", got)
	}
}

// TestMemoStoresOnlyReusableRuns: errors, canceled runs and observed
// scenarios are never stored; shards is not part of the key, step_mode
// is; a nil memo runs everything.
func TestMemoStoresOnlyReusableRuns(t *testing.T) {
	ok := func() (Outcome, error) { return Outcome{Result: noc.Result{Ejected: 1}}, nil }
	cases := []struct {
		name string
		run  func() (Outcome, error)
		mod  func(*Scenario)
		hit  bool
	}{
		{"error", func() (Outcome, error) { return Outcome{}, errors.New("boom") }, nil, false},
		{"canceled", func() (Outcome, error) { return Outcome{Result: noc.Result{Canceled: true}}, nil }, nil, false},
		{"observed", ok, func(sc *Scenario) { sc.Observe = &Observe{} }, false},
		{"shards ignored", ok, func(sc *Scenario) { sc.Shards = 4 }, true},
		{"step mode kept", ok, func(sc *Scenario) { sc.StepMode = "fullscan" }, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := NewMemo()
			if _, _, err := m.do(ur(), c.run); err != nil && c.name != "error" {
				t.Fatal(err)
			}
			sc := ur()
			if c.mod != nil {
				c.mod(&sc)
			}
			_, hit, _ := m.do(sc, c.run)
			if hit != c.hit {
				t.Errorf("second lookup hit=%v, want %v", hit, c.hit)
			}
		})
	}
	var nilMemo *Memo
	for i := 0; i < 2; i++ {
		if _, hit, _ := nilMemo.do(ur(), ok); hit {
			t.Error("nil memo served a hit")
		}
	}
	if got := nilMemo.Stats(); got != (MemoStats{}) {
		t.Errorf("nil memo stats %+v", got)
	}
}

// TestMemoRunMatchesRun: Memo.Run gives the plain Scenario.Run result,
// first simulated and then served.
func TestMemoRunMatchesRun(t *testing.T) {
	want, err := ur().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	m := NewMemo()
	for i, wantHit := range []bool{false, true} {
		out, hit, err := m.Run(context.Background(), ur())
		if err != nil {
			t.Fatal(err)
		}
		if hit != wantHit || out.Result.String() != want.String() || out.Result.Counters != want.Counters {
			t.Errorf("call %d: hit=%v result %s, want hit=%v %s", i, hit, out.Result.String(), wantHit, want.String())
		}
	}
}
