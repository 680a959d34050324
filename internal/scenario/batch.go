package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"mira/internal/noc"
)

// BatchOptions controls RunBatch.
type BatchOptions struct {
	// Workers caps the worker pool; 0 means GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
	// Timeout bounds each individual run (elaboration + simulation);
	// a run over budget returns its partial result with
	// Result.Canceled set. 0 means no per-run bound.
	Timeout time.Duration `json:"timeout,omitempty"`

	// OnStart, when non-nil, is called from the worker goroutine right
	// after scenario i elaborates and before its simulation starts, once
	// per simulation that actually runs: a repeat served from the
	// batch's run memo (see RunBatch) has no OnStart. The serving layer
	// (internal/serve) uses it to publish the run's live observability
	// collector. Hooks must be safe for concurrent calls from multiple
	// workers.
	OnStart func(i int, e *Elaboration) `json:"-"`
	// OnDone, when non-nil, is called from the worker goroutine as soon
	// as entry i has its result (successfully or not), before the batch
	// as a whole completes. It fires exactly once per index, repeats
	// included, so a repeat's OnDone has no OnStart before it.
	OnDone func(r BatchResult) `json:"-"`
}

// BatchResult pairs one scenario with its outcome. Exactly one of
// Result (Err == "") and Err is meaningful; a run that was cut off by
// the per-run timeout or the batch context still reports its partial
// Result with Canceled set.
type BatchResult struct {
	Index    int        `json:"index"`
	Scenario Scenario   `json:"scenario"`
	Result   noc.Result `json:"result"`
	Err      string     `json:"error,omitempty"`
}

// RunBatch executes a set of scenarios on a worker pool and returns one
// result per scenario, in input order. The batch's runs share a private
// run memo (see Memo): a repeat of a scenario whose run has finished is
// not simulated again but gets that run's result under its own Index
// and Scenario. Repeats that start while the first run is still going,
// and repeats of a run that failed, panicked or was canceled, run
// themselves. Invalid scenarios fail
// individually (their Err is set) without affecting the rest, and so do
// runs that panic: the panic becomes that run's Err, naming the
// scenario's content hash, the cycle it reached and a one-line
// mirasim repro (see panicError). When ctx
// is canceled the batch stops dispatching, in-flight runs return
// partial results, all workers exit before RunBatch returns, and
// never-started entries carry an error saying so.
//
// This is the serving-layer entry point: JSON scenarios in,
// JSON-serializable results out (see RunBatchJSON for the stream form).
func RunBatch(ctx context.Context, scs []Scenario, o BatchOptions) []BatchResult {
	out := make([]BatchResult, len(scs))
	for i, sc := range scs {
		out[i] = BatchResult{Index: i, Scenario: sc, Err: "batch canceled before this scenario started"}
	}
	if len(scs) == 0 {
		return out
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(scs) {
		workers = len(scs)
	}

	memo := NewMemo()

	runOne := func(i int) {
		br := BatchResult{Index: i, Scenario: scs[i]}
		var e *Elaboration
		simulate := func() (Outcome, error) {
			runCtx := ctx
			cancel := context.CancelFunc(func() {})
			if o.Timeout > 0 {
				runCtx, cancel = context.WithTimeout(ctx, o.Timeout)
			}
			defer cancel()
			var err error
			e, err = scs[i].Elaborate()
			if err != nil {
				return Outcome{}, err
			}
			if o.OnStart != nil {
				o.OnStart(i, e)
			}
			res := e.Sim.Run(runCtx)
			if e.Obs != nil {
				// Flush the trailing partial sample window so serving
				// readers see the run's final state.
				err = e.Obs.Close()
			}
			return Outcome{Result: res}, err
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					br.Result = noc.Result{}
					br.Err = panicError(scs[i], e, p)
					if e != nil && e.Obs != nil {
						// Stop the collector's ticker; the panic is
						// already this run's error.
						_ = e.Obs.Close()
					}
				}
			}()
			oc, _, err := memo.do(scs[i], simulate)
			br.Result = oc.Result
			if err != nil {
				br.Err = err.Error()
			}
		}()
		out[i] = br
		if o.OnDone != nil {
			o.OnDone(br)
		}
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				runOne(i)
			}
		}()
	}
dispatch:
	for i := range scs {
		select {
		case idx <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	return out
}

// panicError describes a run that panicked: the scenario's content hash
// (the first 16 hex digits of the SHA-256 of its JSON form), the cycle
// its network had reached (or that elaboration had not finished), the
// panic value, and a shell line that reruns the scenario alone.
func panicError(sc Scenario, e *Elaboration, p any) string {
	data, err := json.Marshal(sc)
	if err != nil {
		return fmt.Sprintf("scenario panicked: %v (and its JSON encoding failed: %v)", p, err)
	}
	sum := sha256.Sum256(data)
	where := "during elaboration"
	if e != nil {
		where = fmt.Sprintf("at cycle %d", e.Net.Cycle())
	}
	quoted := "'" + strings.ReplaceAll(string(data), "'", `'\''`) + "'"
	return fmt.Sprintf("scenario %s panicked %s: %v; repro: echo %s | mirasim -scenario -",
		hex.EncodeToString(sum[:])[:16], where, p, quoted)
}

// DecodeBatch reads a batch description: either a JSON array of
// scenarios or a single scenario object.
func DecodeBatch(r io.Reader) ([]Scenario, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("scenario: reading batch input: %w", err)
	}
	var scs []Scenario
	if err := json.Unmarshal(data, &scs); err != nil {
		var one Scenario
		if err1 := json.Unmarshal(data, &one); err1 != nil {
			return nil, fmt.Errorf("scenario: batch input is neither a scenario array (%v) nor a scenario object (%v)", err, err1)
		}
		scs = []Scenario{one}
	}
	return scs, nil
}

// RunBatchJSON is RunBatch over serialized scenarios: r holds either a
// JSON array of scenarios or a single scenario object, and the results
// are written to w as an indented JSON array.
func RunBatchJSON(ctx context.Context, r io.Reader, w io.Writer, o BatchOptions) error {
	scs, err := DecodeBatch(r)
	if err != nil {
		return err
	}
	results := RunBatch(ctx, scs, o)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}
