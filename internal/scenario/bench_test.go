package scenario

import "testing"

// BenchmarkElaborate times scenario elaboration (validation, design,
// traffic build, network construction) per traffic family. The trace
// case regenerates the CMP trace for the quick suite's window, which
// dominates its cost.
func BenchmarkElaborate(b *testing.B) {
	trace := ur()
	trace.Arch = "3DM"
	trace.Traffic = Traffic{Kind: "trace", Workload: "tpcw", TraceCycles: 8000}
	cases := []struct {
		name string
		sc   Scenario
	}{
		{"ur", ur()},
		{"trace", trace},
		{"collective", collectiveScenario("ring-allreduce", 1)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.sc.Elaborate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
