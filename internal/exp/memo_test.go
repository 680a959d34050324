package exp

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mira/internal/cmp"
	"mira/internal/core"
	"mira/internal/scenario"
)

// TestMemoPortGolden: every simulation-backed driver, run in turn with
// one shared memo at workers 1 and at workers 2, still renders its
// scenario-port golden unchanged (the goldens pin the output without a
// memo). The drivers that repeat an earlier sweep (fig11d and fig12c
// repeat fig11c's MP-trace runs, fig12a/12d repeat fig11a's UR sweep,
// fig12b repeats fig11b's NUCA-UR sweep) simulate nothing, and every
// driver's memo counts are the same at both worker counts.
func TestMemoPortGolden(t *testing.T) {
	t.Parallel()
	sweep := int64(len(URRates) * len(core.Archs))
	traces := int64(len(cmp.Presented) * len(core.Archs))
	served := map[string]scenario.MemoStats{
		"fig11d": {Hits: traces}, "fig12a": {Hits: sweep}, "fig12b": {Hits: sweep},
		"fig12c": {Hits: traces}, "fig12d": {Hits: sweep},
	}
	var counts [][]scenario.MemoStats
	for _, workers := range []int{1, 2} {
		o := portGoldenOpts()
		o.Workers = workers
		o.Memo = scenario.NewMemo()
		var perDriver []scenario.MemoStats
		for _, d := range portGoldenDrivers() {
			before := o.Memo.Stats()
			tb, err := d.run(o)
			if err != nil {
				t.Fatalf("workers=%d: %s: %v", workers, d.id, err)
			}
			after := o.Memo.Stats()
			got := scenario.MemoStats{Simulated: after.Simulated - before.Simulated, Hits: after.Hits - before.Hits}
			perDriver = append(perDriver, got)
			if want, ok := served[d.id]; ok && got != want {
				t.Errorf("workers=%d: %s memo counts %+v, want %+v", workers, d.id, got, want)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "port", d.id+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got := tb.String(); got != string(want) {
				t.Errorf("workers=%d: %s diverged from its golden with a shared memo:\n--- want ---\n%s\n--- got ---\n%s",
					workers, d.id, want, got)
			}
		}
		counts = append(counts, perDriver)
	}
	if !reflect.DeepEqual(counts[0], counts[1]) {
		t.Errorf("per-driver memo counts differ between workers 1 and 2:\n%+v\n%+v", counts[0], counts[1])
	}
}
