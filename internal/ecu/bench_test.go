package ecu

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/stressor"
)

// liveWindowScenarios is the ECU SEU universe at three instants inside
// the window the golden program runs in (it halts about 3.5 µs in):
// 123 single-upset scenarios whose faults hit live state.
func liveWindowScenarios(r *Runner) []fault.Scenario {
	var ds []fault.Descriptor
	for _, at := range []sim.Time{sim.NS(500), sim.NS(1700), sim.NS(2900)} {
		ds = append(ds, r.Universe(at)...)
	}
	return fault.Singles(ds)
}

// BenchmarkECUCampaign prices the ECU model layer per scenario on the
// three engine paths at 2 workers: plain (slot reuse, full run), tree
// (checkpoint-tree prefix sharing) and tree+ee (plus convergence early
// exit, which digests the slot state at every hash stride). Every
// iteration's result is checked against the rebuild-per-run oracle.
func BenchmarkECUCampaign(b *testing.B) {
	ref, err := NewRunner(DefaultRunnerConfig())
	if err != nil {
		b.Fatal(err)
	}
	scenarios := liveWindowScenarios(ref)
	ref.ReuseOff = true
	want, err := (&stressor.Campaign{Name: "ref", Run: ref.RunFunc()}).Execute(scenarios)
	ref.Close()
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name        string
		tree, early bool
	}{
		{"plain", false, false},
		{"tree", true, false},
		{"tree+ee", true, true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			r, err := NewRunner(DefaultRunnerConfig())
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			c := &stressor.Campaign{Name: "bench", Run: r.RunFunc(), Workers: 2}
			if mode.tree {
				c.Checkpoints = true
				c.Checkpointer = r
				c.CheckpointTree = true
				c.EarlyExit = mode.early
			}
			b.ReportAllocs()
			b.ReportMetric(float64(len(scenarios)), "scenarios/op")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := c.Execute(scenarios)
				if err != nil {
					b.Fatal(err)
				}
				for j, o := range res.Outcomes {
					if w := want.Outcomes[j]; o.Class != w.Class || o.Detail != w.Detail {
						b.Fatalf("%s: %s/%q, oracle %s/%q", o.Scenario.ID, o.Class, o.Detail, w.Class, w.Detail)
					}
				}
			}
		})
	}
}
