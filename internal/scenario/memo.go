package scenario

import (
	"context"
	"encoding/json"
	"sync"

	"mira/internal/cmp"
	"mira/internal/noc"
)

// Outcome is what a memoized run produces: the simulation result and,
// for the trace-backed traffic kinds, the CMP trace statistics.
type Outcome struct {
	Result noc.Result
	Stats  cmp.Stats
}

// clone returns a copy of o that shares no memory with it.
func (o Outcome) clone() Outcome {
	o.Result = o.Result.Clone()
	return o
}

// MemoStats counts what a Memo has done: Simulated is the number of
// runs it executed (including runs it could not store), Hits the number
// of lookups it served from a stored outcome.
type MemoStats struct {
	Simulated, Hits int64
}

// Memo is a content-addressed run memo: it stores the outcome of each
// distinct scenario it has run and hands copies of it to every later
// caller of the same scenario. The key is the scenario's canonical JSON
// with the ignored shards field cleared; step_mode stays in the key. A
// memo never stores
//
//   - scenarios that set Observe: the collector, its trace files and the
//     live serve metrics are what those runs produce, so they always run;
//   - runs that end with an error, a panic or Result.Canceled: a
//     duplicate of such a run runs itself.
//
// A Memo is safe for concurrent use. A lookup never waits for another
// caller: callers that miss the same key at the same time each simulate
// it, and the memo keeps one of their (identical) outcomes. The nil
// *Memo is valid and stores nothing.
//
// The key names a replayed trace by its file path, so a memo assumes
// that trace files do not change while it is in use.
type Memo struct {
	mu      sync.Mutex
	entries map[string]Outcome
	stats   MemoStats
}

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	return &Memo{entries: map[string]Outcome{}}
}

// Stats returns the memo's counts so far (zero for a nil memo).
func (m *Memo) Stats() MemoStats {
	if m == nil {
		return MemoStats{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// memoKey is the memo key of sc, or false when sc must not be memoized.
func memoKey(sc Scenario) (string, bool) {
	if sc.Observe != nil {
		return "", false
	}
	sc.Shards = 0
	data, err := json.Marshal(sc)
	if err != nil {
		return "", false
	}
	return string(data), true
}

// Run returns the outcome of elaborating sc and simulating it under ctx,
// served from the memo when an earlier call stored it. hit reports
// whether it was.
func (m *Memo) Run(ctx context.Context, sc Scenario) (out Outcome, hit bool, err error) {
	return m.do(sc, func() (Outcome, error) {
		e, err := sc.Elaborate()
		if err != nil {
			return Outcome{}, err
		}
		return Outcome{Result: e.Sim.Run(ctx), Stats: e.Stats}, nil
	})
}

// do returns the outcome of sc: a copy of the stored one if there is
// one (hit is true), otherwise whatever run returns, which it stores
// when the run succeeded. run must compute sc's outcome; a panic in it
// propagates to the caller and stores nothing.
func (m *Memo) do(sc Scenario, run func() (Outcome, error)) (out Outcome, hit bool, err error) {
	if m == nil {
		out, err = run()
		return out, false, err
	}
	key, ok := memoKey(sc)
	m.mu.Lock()
	stored, found := m.entries[key]
	if found {
		m.stats.Hits++
	} else {
		m.stats.Simulated++
	}
	m.mu.Unlock()
	if found {
		return stored.clone(), true, nil
	}
	out, err = run()
	if ok && err == nil && !out.Result.Canceled {
		m.mu.Lock()
		m.entries[key] = out.clone()
		m.mu.Unlock()
	}
	return out, false, err
}
