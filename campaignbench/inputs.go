package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/campaignd"
	"repro/internal/caps"
	"repro/internal/ecu"
	"repro/internal/fault"
	"repro/internal/sim"
)

// Input make-up. Instants are drawn from the seed; everything else is
// fixed so that every seed yields universes of the same size and
// composition.
const (
	capsHorizon    = 80  // ms, capsim's default
	capsWindowLo   = 2   // ms: injection instants fall in [lo, hi)
	capsWindowHi   = 70  // ms
	transientUS    = 400 // µs, duration of the transient variants
	daemonPool     = 8   // specs per round
	daemonInstants = 4   // per spec
	fabricInstant  = 48  // instants in the fabric universe
	fabricShards   = 8
	ecuPool        = 4
	ecuInstants    = 3 // per universe
	// The golden ECU program halts about 3.5 µs in; upsets later than
	// that hit only idle state (and some end as sdc), so the universe
	// stays inside [ecuWindowLo, ecuWindowHi).
	ecuWindowLo    = 100  // ns
	ecuWindowHi    = 3400 // ns
	adaptiveBudget = 4000
	adaptivePool   = 8
)

// e8At is the CAPS E8 single-fault universe at instant t, each fault
// once permanent and once transient, with names made unique per
// instant.
func e8At(r *caps.Runner, t sim.Time) []fault.Descriptor {
	var out []fault.Descriptor
	for _, d := range r.Universe(t) {
		d.Name = fmt.Sprintf("%s@%d", d.Name, uint64(t))
		out = append(out, d)
		d.Class = fault.Transient
		d.Duration = sim.US(transientUS)
		d.Name += "+t"
		out = append(out, d)
	}
	return out
}

// stratified draws n instants, one uniformly from each of n equal
// strata of [lo, hi) on the given grid, ascending. Stratifying keeps
// every seed's inputs spread over the whole window, so the work a run
// measures varies little from seed to seed.
func stratified(rng *rand.Rand, lo, hi, grid sim.Time, n int) []sim.Time {
	steps := int((hi - lo) / grid)
	ts := make([]sim.Time, n)
	for k := range ts {
		a, b := k*steps/n, (k+1)*steps/n
		ts[k] = lo + sim.Time(a+rng.Intn(b-a))*grid
	}
	return ts
}

func capsInstants(rng *rand.Rand, n int) []sim.Time {
	return stratified(rng, sim.MS(capsWindowLo), sim.MS(capsWindowHi), sim.US(1), n)
}

// inlineSpec renders scenarios as a capsimd spec with an inline
// universe: the form a client submits and capsim-coord accepts.
func inlineSpec(name string, scs []fault.Scenario, workers int) ([]byte, error) {
	spec := campaignd.Spec{
		Campaign: name,
		Universe: campaignd.UniverseSpec{Kind: campaignd.KindInline, Horizon: fmt.Sprintf("%dms", capsHorizon)},
		Workers:  workers, CheckpointTree: true, EarlyExit: true,
	}
	for _, sc := range scs {
		spec.Universe.Scenarios = append(spec.Universe.Scenarios,
			campaignd.InlineScenario{ID: sc.ID, Faults: sc.Faults[0].Syntax()})
	}
	return json.Marshal(spec)
}

// specScenarios parses a spec back into the scenarios capsimd runs.
func specScenarios(raw []byte) ([]fault.Scenario, error) {
	spec, err := campaignd.ParseSpec(raw)
	if err != nil {
		return nil, err
	}
	r, err := spec.BuildRunner()
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return spec.Scenarios(r)
}

func newCapsRunner() (*caps.Runner, error) {
	return caps.NewRunner(caps.Protected(), caps.NormalDriving(), sim.MS(capsHorizon))
}

// daemonInputs: 8 specs, each the E8 universe permanent and transient
// at 4 seeded instants (168 scenarios), on 2 in-run workers with tree
// and early exit. The 32 instants are stratified over the window and
// dealt round-robin, so every spec spans it.
func daemonInputs(seed int64) (*inputs, error) {
	r, err := newCapsRunner()
	if err != nil {
		return nil, err
	}
	defer r.Close()
	rng := rand.New(rand.NewSource(seed))
	ts := capsInstants(rng, daemonPool*daemonInstants)
	in := &inputs{pool: daemonPool}
	for j := 0; j < daemonPool; j++ {
		var ds []fault.Descriptor
		for k := j; k < len(ts); k += daemonPool {
			ds = append(ds, e8At(r, ts[k])...)
		}
		raw, err := inlineSpec(fmt.Sprintf("daemon-%d", j), fault.Singles(ds), 2)
		if err != nil {
			return nil, err
		}
		scs, err := specScenarios(raw)
		if err != nil {
			return nil, err
		}
		in.specs = append(in.specs, raw)
		in.scenarios = append(in.scenarios, scs)
	}
	return in, nil
}

// fabricInputs: one spec of the E8 universe permanent and transient at
// 48 seeded instants (2016 scenarios), sequential inner engines.
func fabricInputs(seed int64) (*inputs, error) {
	r, err := newCapsRunner()
	if err != nil {
		return nil, err
	}
	defer r.Close()
	rng := rand.New(rand.NewSource(seed))
	var ds []fault.Descriptor
	for _, t := range capsInstants(rng, fabricInstant) {
		ds = append(ds, e8At(r, t)...)
	}
	raw, err := inlineSpec("fabric", fault.Singles(ds), 0)
	if err != nil {
		return nil, err
	}
	scs, err := specScenarios(raw)
	if err != nil {
		return nil, err
	}
	return &inputs{pool: 1, specs: [][]byte{raw}, scenarios: [][]fault.Scenario{scs}}, nil
}

// adaptiveInputs: four novelty seeds and the budget; the universe is
// the runner's own E8 universe, as capsim -adaptive uses.
func adaptiveInputs(seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{pool: adaptivePool, budget: adaptiveBudget}
	for k := 0; k < adaptivePool; k++ {
		in.noveltySeeds = append(in.noveltySeeds, rng.Int63n(1<<31)+1)
	}
	return in, nil
}

// ecuInputs: four universes, each the ECU SEU universe at 3 instants
// (123 scenarios) inside the window in which the golden program runs.
// The 12 instants are stratified over the window and dealt round-robin,
// so every universe spans it.
func ecuInputs(seed int64) (*inputs, error) {
	r, err := ecu.NewRunner(ecu.DefaultRunnerConfig())
	if err != nil {
		return nil, err
	}
	defer r.Close()
	rng := rand.New(rand.NewSource(seed))
	ts := stratified(rng, sim.NS(ecuWindowLo), sim.NS(ecuWindowHi), sim.NS(1), ecuPool*ecuInstants)
	in := &inputs{pool: ecuPool}
	for u := 0; u < ecuPool; u++ {
		var ds []fault.Descriptor
		for k := u; k < len(ts); k += ecuPool {
			ds = append(ds, r.Universe(ts[k])...)
		}
		in.scenarios = append(in.scenarios, fault.Singles(ds))
	}
	return in, nil
}
