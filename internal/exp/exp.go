// Package exp contains one driver per table and figure of the MIRA
// paper's evaluation. The drivers are shared by the mirabench command
// and the root-level testing.B benchmarks, and their outputs populate
// EXPERIMENTS.md. Each experiment is deterministic given Options.Seed.
package exp

import (
	"context"
	"encoding/csv"
	"fmt"
	"strings"

	"mira/internal/cmp"
	"mira/internal/core"
	"mira/internal/noc"
	"mira/internal/power"
	"mira/internal/scenario"
	"mira/internal/stats"
)

// Options sizes the simulations.
type Options struct {
	Warmup  int64
	Measure int64
	Drain   int64
	// TraceCycles is the CMP generation window for the MP-trace
	// experiments.
	TraceCycles int64
	Seed        int64
	// Workers caps the RunAll worker pool that fans independent sweep
	// points across goroutines; 0 (the default) means GOMAXPROCS.
	// Results are bit-identical for every worker count — see runner.go.
	Workers int
	// Progress, when non-nil, is invoked (serialized) after each
	// completed sweep point, for per-point progress/timing reporting.
	Progress func(Progress)
	// StepMode selects the simulator's per-cycle scheduling strategy
	// (activity-driven by default). Results are bit-identical across
	// modes; fullscan/checked exist for determinism diffs and
	// debugging (mirabench -stepmode).
	StepMode noc.StepMode
	// ObserveWindow, when positive, adds an Observe block with this
	// sample window (cycles) to every scenario the options produce, so
	// each sweep point runs with an observability collector attached
	// (internal/obs). Zero leaves scenarios unobserved; results are
	// identical either way, observation only adds visibility.
	ObserveWindow int64
	// Engine attaches engine self-telemetry (obs.EngineCollector) to
	// every scenario the options produce: step wall-time, cycles/sec
	// with ETA (mirabench -enginestats). Like ObserveWindow, strictly
	// out-of-band — results are bit-identical.
	Engine bool
	// Memo, when non-nil, serves RunUR, RunNUCAUR and RunTrace from a
	// content-addressed run memo, so experiments that repeat a sweep
	// (fig12a/12d repeat fig11a, fig12b repeats fig11b, fig11d/12c
	// repeat fig11c) simulate each distinct point once per memo. Tables
	// are byte-identical either way. mirabench shares one memo per
	// invocation; nil (the testing.B figure benchmarks) re-simulates
	// every point.
	Memo *scenario.Memo

	// tally counts the current sweep point's memo lookups for
	// Progress.MemoHit; RunAll sets it per point when reporting
	// progress.
	tally *memoTally
}

// memoTally counts one sweep point's Options.Memo lookups. A point runs
// on one goroutine, so it needs no lock.
type memoTally struct{ simulated, hits int }

// add counts one lookup; a nil tally counts nothing.
func (t *memoTally) add(hit bool) {
	switch {
	case t == nil:
	case hit:
		t.hits++
	default:
		t.simulated++
	}
}

// served reports whether the memo served every lookup counted, with at
// least one lookup.
func (t *memoTally) served() bool {
	return t != nil && t.hits > 0 && t.simulated == 0
}

// simulate elaborates and runs sc through o.Memo.
func (o Options) simulate(ctx context.Context, sc scenario.Scenario) (scenario.Outcome, error) {
	out, hit, err := o.Memo.Run(ctx, sc)
	if err == nil {
		o.tally.add(hit)
	}
	return out, err
}

// mustSimulate is simulate for a driver-authored scenario, which is
// statically valid, so an error is a programming error (as in
// mustElaborate).
func (o Options) mustSimulate(ctx context.Context, sc scenario.Scenario) noc.Result {
	out, err := o.simulate(ctx, sc)
	if err != nil {
		panic(err)
	}
	return out.Result
}

// Default returns the full-size experiment windows.
func Default() Options {
	return Options{Warmup: 5000, Measure: 20000, Drain: 30000, TraceCycles: 30000, Seed: 42}
}

// Quick returns scaled-down windows for benchmarks and smoke tests.
func Quick() Options {
	return Options{Warmup: 1000, Measure: 4000, Drain: 10000, TraceCycles: 8000, Seed: 42}
}

// Scenario converts the options into a base run description for one
// architecture: windows, seed and step mode carried over, traffic and
// overrides left for the caller to fill in. Every simulation a driver
// runs goes Options -> Scenario -> scenario.Elaborate, so mirabench
// -stepmode/-seed reach every simulation and any driver's point can be
// reproduced standalone from its serialized scenario.
func (o Options) Scenario(a core.Arch) scenario.Scenario {
	sc := scenario.Scenario{
		Arch:     a.String(),
		Warmup:   o.Warmup,
		Measure:  o.Measure,
		Drain:    o.Drain,
		Seed:     o.Seed,
		StepMode: o.StepMode.String(),
	}
	if o.ObserveWindow > 0 {
		sc.Observe = &scenario.Observe{Window: o.ObserveWindow}
	}
	if o.Engine {
		if sc.Observe == nil {
			sc.Observe = &scenario.Observe{}
		}
		sc.Observe.Engine = true
	}
	return sc
}

// mustElaborate builds a driver-authored scenario. The drivers'
// scenarios are statically valid, so failure here is a programming
// error, not an input error.
func mustElaborate(sc scenario.Scenario) *scenario.Elaboration {
	e, err := sc.Elaborate()
	if err != nil {
		panic(err)
	}
	return e
}

// Table is a printable experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	// Notes carry caveats (substitutions, saturated points).
	Notes []string
}

// String renders the table as aligned plain text.
func (t Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// CSV renders the table as RFC 4180 CSV (header + rows; notes are
// omitted), for plotting pipelines. Cells containing commas, quotes or
// newlines are fully quoted per the RFC.
func (t Table) CSV() string {
	var sb strings.Builder
	w := csv.NewWriter(&sb)
	if err := w.Write(t.Header); err != nil {
		panic(err) // strings.Builder never errors
	}
	if err := w.WriteAll(t.Rows); err != nil {
		panic(err)
	}
	w.Flush()
	return sb.String()
}

// Designs elaborates all six architectures fresh (topologies are
// mutable by node-type assignment, so experiments never share them).
func Designs() []*core.Design {
	out := make([]*core.Design, 0, len(core.Archs))
	for _, a := range core.Archs {
		out = append(out, core.MustDesign(a))
	}
	return out
}

// RunUR simulates one architecture under uniform-random traffic at the
// given injection rate (flits/node/cycle) with the given short-flit
// fraction.
func RunUR(ctx context.Context, a core.Arch, rate, shortFrac float64, o Options) noc.Result {
	sc := o.Scenario(a)
	sc.Traffic = scenario.Traffic{Kind: "ur", Rate: rate, ShortFrac: shortFrac}
	return o.mustSimulate(ctx, sc)
}

// RunNUCAUR simulates the layout-constrained bimodal request/response
// workload (§4.2.1's "NUCA-UR").
func RunNUCAUR(ctx context.Context, a core.Arch, rate, shortFrac float64, o Options) noc.Result {
	sc := o.Scenario(a)
	sc.Traffic = scenario.Traffic{Kind: "nuca", Rate: rate, ShortFrac: shortFrac}
	return o.mustSimulate(ctx, sc)
}

// RunTrace generates the workload's CMP coherence trace on the
// architecture's own topology and replays it through the NoC.
func RunTrace(ctx context.Context, a core.Arch, w cmp.Workload, o Options) (noc.Result, cmp.Stats, error) {
	sc := o.Scenario(a)
	sc.Traffic = scenario.Traffic{Kind: "trace", Workload: w.Name, TraceCycles: o.TraceCycles}
	out, err := o.simulate(ctx, sc)
	if err != nil {
		return noc.Result{}, cmp.Stats{}, err
	}
	return out.Result, out.Stats, nil
}

// NetworkPowerW converts a simulation result into average network power
// (W) under the design's energy model, optionally applying the
// short-flit layer-shutdown accounting.
func NetworkPowerW(d *core.Design, res noc.Result, shutdown bool) float64 {
	b := power.NetworkEnergy(d.Energy, res.Counters, shutdown)
	return power.AvgPowerW(b, res.Cycles)
}

// PerRouterPowerW returns each router's average power for the thermal
// model.
func PerRouterPowerW(d *core.Design, res noc.Result, shutdown bool) []float64 {
	out := make([]float64, len(res.PerRouter))
	for i, c := range res.PerRouter {
		b := power.NetworkEnergy(d.Energy, c, shutdown)
		out[i] = power.AvgPowerW(b, res.Cycles)
	}
	return out
}

// Replicate evaluates a metric across n seeds (base, base+1, ...) and
// returns its distribution, for confidence checks on simulated numbers.
func Replicate(n int, base int64, metric func(seed int64) float64) stats.Mean {
	var m stats.Mean
	for i := 0; i < n; i++ {
		m.Add(metric(base + int64(i)))
	}
	return m
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// latCell renders a latency with a saturation marker.
func latCell(r noc.Result) string {
	s := f1(r.AvgLatency)
	if r.Saturated {
		s += "*"
	}
	return s
}
