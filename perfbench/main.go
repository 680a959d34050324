// Command perfbench is the simulator's benchmark. It drives the batch
// path that mirasim -scenario and -serve use (scenario.RunBatch, one
// worker) over one of three workloads and times every layer from
// outside, through the batch and Sim hooks:
//
//   - paper-sweep: the quick-suite UR, NUCA-UR and CMP-trace sweeps of
//     Figs. 11-12 on 36-router meshes, repeats included, so scenario
//     elaboration (trace generation) and repeated scenarios show;
//   - large-fabric: 256-router meshes and chiplet grids at a draining
//     and a saturating UR rate, auto-sharded, so network stepping, the
//     shard barrier and the mailboxes dominate;
//   - collective-closed: closed-loop collectives whose injection is
//     driven by eject callbacks and whose cycles are mostly idle.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload paper-sweep --seed 42 --seconds 10 --trace 0
//
// With --trace 0 it times set-up passes (every scenario elaborated),
// then repeats the workload's batch for --seconds and prints the
// end-to-end metrics, medians over passes and batches; with --trace 1
// it alternates untraced and instrumented batches and prints the
// per-layer metrics. Host times are process CPU time, not wall time
// (see batch). Every run's result is hashed; the hashes must
// match the committed reference for seed 42, repeat exactly across
// batches and repeated scenarios, and not change under tracing or
// (for sharded workloads) at one shard. The last stdout line is the
// JSON result; the line before it is the provenance record. --dump
// writes the batch as scenario JSON that mirasim -scenario replays.
package main

import (
	"bufio"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"mira/internal/cmp"
	"mira/internal/scenario"
)

// referenceSeed is the seed whose per-run digests are committed in
// reference/<workload>.txt.
const referenceSeed = 42

//go:embed reference
var reference embed.FS

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "paper-sweep", "workload: paper-sweep, large-fabric or collective-closed")
	seed := fl.Int64("seed", referenceSeed, "workload seed")
	seconds := fl.Int("seconds", 10, "how long to keep repeating the batch")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: instrumented per-layer metrics")
	dump := fl.String("dump", "", "write the workload's scenarios as a JSON array to this file and exit")
	update := fl.Bool("update-reference", false, "rewrite perfbench/reference/<workload>.txt from this run (seed 42 only)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *update && *seed != referenceSeed {
		fmt.Fprintf(os.Stderr, "perfbench: --update-reference needs --seed %d\n", referenceSeed)
		return 2
	}
	scs := w.build(*seed)
	if *dump != "" {
		if err := writeScenarios(*dump, scs); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	hashes := make([]string, len(scs))
	for i, sc := range scs {
		hashes[i] = scenarioHash(sc)
	}
	chk := &checker{hashes: hashes}
	if *seed == referenceSeed && !*update {
		ref, err := readReference(w.name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		chk.reference = ref
	}

	deadline := time.Now().Add(time.Duration(*seconds) * time.Second)
	var metrics map[string]metric
	var timed []batch // the batches the metrics come from
	if *trace == 0 {
		// Set-up is short and noisy next to a batch, so it gets passes
		// of its own: at least 5, until a 20th of the run is spent.
		var setups []time.Duration
		var spent time.Duration
		for len(setups) < 5 || (spent < time.Duration(*seconds)*time.Second/20 && len(setups) < 100) {
			d := setupPass(scs)
			setups = append(setups, d)
			spent += d
		}
		for {
			b := measure(scs, false)
			chk.check(b)
			timed = append(timed, b)
			if time.Until(deadline) < b.wall {
				break
			}
		}
		metrics = endToEnd(timed, setups, peakRSSMB(), chk.okFrac())
	} else {
		var overheads []float64
		for {
			u := measure(scs, false)
			t := measure(scs, true)
			chk.check(u)
			chk.check(t)
			timed = append(timed, t)
			overheads = append(overheads, t.cpu.Seconds()/u.cpu.Seconds()-1)
			if time.Until(deadline) < u.wall+t.wall {
				break
			}
		}
		if one, ok := oneShard(scs); ok {
			chk.check(measure(one, false))
		}
		gen, packets, err := traceGeneration(scs, hashes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		metrics = perLayer(medianBatch(timed), median(overheads), duplicates(hashes), gen, packets)
	}

	if *update {
		if chk.failed > 0 {
			fmt.Fprintln(os.Stderr, "perfbench: not updating the reference: runs failed")
			return 1
		}
		if err := writeReference(w.name, hashes, chk.base); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}

	for _, f := range chk.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", f)
	}
	rec := provenance(w.name, *seed, *trace, timed, hashes, chk.base)
	line, err := json.Marshal(map[string]any{"record": rec})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	line, err = json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{chk.failed == 0, chk.attempted, chk.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// checker verifies every batch's per-run digests: against the first
// batch of the process (determinism, tracing and shard invariance),
// against earlier runs of the same scenario, and against the committed
// reference when there is one. Each failing run counts once.
type checker struct {
	hashes    []string
	reference []string // "<scenario hash> <digest>" per run for the reference seed, or nil
	base      []string // the first batch's digests
	attempted int
	failed    int
	failures  []string
}

func (c *checker) check(b batch) {
	if c.base == nil {
		c.base = make([]string, len(b.runs))
		for i, r := range b.runs {
			c.base[i] = r.digest
		}
	}
	first := map[string]string{} // scenario hash -> digest of its first run
	for i, r := range b.runs {
		c.attempted++
		why := r.failure
		if d, ok := first[c.hashes[i]]; ok && d != r.digest && why == "" {
			why = "differs from an earlier run of the same scenario"
		}
		first[c.hashes[i]] = r.digest
		if why == "" && r.digest != c.base[i] {
			why = "differs from the first batch"
		}
		if why == "" && c.reference != nil && (i >= len(c.reference) || c.reference[i] != c.hashes[i]+" "+r.digest) {
			why = "differs from the reference digest"
		}
		if why != "" {
			c.failed++
			c.failures = append(c.failures, fmt.Sprintf("run %d (scenario %s): %s", i, c.hashes[i], why))
		}
	}
}

func (c *checker) okFrac() float64 {
	return 1 - float64(c.failed)/float64(c.attempted)
}

// duplicates counts runs whose scenario already ran earlier in the batch.
func duplicates(hashes []string) int {
	seen := map[string]bool{}
	n := 0
	for _, h := range hashes {
		if seen[h] {
			n++
		}
		seen[h] = true
	}
	return n
}

// oneShard returns the batch with every auto-sharded scenario pinned to
// one shard, and whether there was any.
func oneShard(scs []scenario.Scenario) ([]scenario.Scenario, bool) {
	out := make([]scenario.Scenario, len(scs))
	any := false
	for i, sc := range scs {
		if sc.Shards < 0 {
			sc.Shards = 1
			any = true
		}
		out[i] = sc
	}
	return out, any
}

// traceGeneration times CMP trace generation (cmp.NewSystem + Run) once
// per distinct trace scenario, outside any batch.
func traceGeneration(scs []scenario.Scenario, hashes []string) (time.Duration, int, error) {
	var total time.Duration
	packets := 0
	seen := map[string]bool{}
	for i, sc := range scs {
		if sc.Traffic.Kind != "trace" || seen[hashes[i]] {
			continue
		}
		seen[hashes[i]] = true
		d, _, err := sc.NoCConfig()
		if err != nil {
			return 0, 0, err
		}
		wl, ok := cmp.ByName(sc.Traffic.Workload)
		if !ok {
			return 0, 0, fmt.Errorf("unknown CMP workload %q", sc.Traffic.Workload)
		}
		t0 := time.Now()
		sys, err := cmp.NewSystem(cmp.DefaultParams(wl, d.Topo, sc.Seed))
		if err != nil {
			return 0, 0, err
		}
		tr, _ := sys.Run(sc.Traffic.TraceCycles)
		total += time.Since(t0)
		packets += len(tr.Events)
	}
	return total, packets, nil
}

func writeScenarios(path string, scs []scenario.Scenario) error {
	data, err := json.MarshalIndent(scs, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding scenarios: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readReference loads the committed per-run lines of a workload, each
// "<scenario hash> <result digest>", so a changed workload definition
// shows as a mismatch as surely as a changed result.
func readReference(name string) ([]string, error) {
	f, err := reference.Open("reference/" + name + ".txt")
	if err != nil {
		return nil, fmt.Errorf("reading reference digests: %w", err)
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			return nil, fmt.Errorf("reference/%s.txt: malformed line %q", name, sc.Text())
		}
		out = append(out, fields[0]+" "+fields[1])
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading reference/%s.txt: %w", name, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("reference/%s.txt is empty; regenerate it with --update-reference", name)
	}
	return out, nil
}

func writeReference(name string, hashes, digests []string) error {
	var sb strings.Builder
	for i := range hashes {
		fmt.Fprintf(&sb, "%s %s\n", hashes[i], digests[i])
	}
	return os.WriteFile(filepath.Join("perfbench", "reference", name+".txt"), []byte(sb.String()), 0o644)
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// provenance ties the run's numbers to the code, the host and the
// inputs: commit (when built inside git) and a hash of the module's Go
// sources, toolchain, CPU, and each scenario's content hash with its
// result digest.
func provenance(name string, seed int64, trace int, bs []batch, hashes, digests []string) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	runs := make([]string, len(hashes))
	for i := range hashes {
		runs[i] = hashes[i] + " " + digests[i]
	}
	return map[string]any{
		"workload":      name,
		"seed":          seed,
		"trace":         trace,
		"commit":        commit,
		"source_hash":   sourceHash("."),
		"go":            runtime.Version(),
		"cpu":           cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"batch_wall_s":  collect(bs, func(b batch) float64 { return b.wall.Seconds() }),
		"batch_cpu_s":   collect(bs, func(b batch) float64 { return b.cpu.Seconds() }),
		"batch_setup_s": collect(bs, func(b batch) float64 { return b.setup.Seconds() }),
		"runs":          runs,
	}
}

// sourceHash hashes every .go and go.mod file under root, skipping
// hidden directories (build outputs, VCS metadata), so a checkout
// without git still identifies its code.
func sourceHash(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
