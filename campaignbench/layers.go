package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/caps"
	"repro/internal/ecu"
	"repro/internal/fault"
	"repro/internal/sim"
)

// perLayer lists every per-layer metric with its unit, in report
// order. BENCHMARK.json names the same set.
var perLayer = []struct{ name, unit string }{
	{"sim.snapshot_us", "us"}, {"sim.restore_us", "us"}, {"sim.hash_us", "us"},
	{"caps.golden_run_us", "us"}, {"caps.run_us", "us"},
	{"ecu.golden_run_us", "us"}, {"ecu.run_us", "us"},
	{"stressor.session_run_us", "us"}, {"stressor.sessions", "count"},
	{"stressor.busy_ratio", "ratio"},
	{"stressor.tree_hits", "count"}, {"stressor.tree_extends", "count"},
	{"stressor.tree_rebuilds", "count"}, {"stressor.tree_evictions", "count"},
	{"stressor.early_exit_ratio", "ratio"}, {"stressor.ee_speedup", "ratio"},
	{"scenario.next_us", "us"}, {"scenario.observe_us", "us"},
	{"scenario.pruned", "count"}, {"scenario.novel_ratio", "ratio"},
	{"journal.append_us", "us"}, {"journal.bytes_per_entry", "B"},
	{"campaignd.submit_ms", "ms"}, {"campaignd.queue_wait_ms", "ms"},
	{"campaignd.exec_ms", "ms"}, {"campaignd.overhead_ms", "ms"},
	{"campaignd.result_ms", "ms"},
	{"campaignd.runner_cache_hits", "count"}, {"campaignd.runner_cache_builds", "count"},
	{"fabric.resolve_ms", "ms"}, {"fabric.lease_ms", "ms"}, {"fabric.flush_ms", "ms"},
	{"fabric.leases", "count"}, {"fabric.flushes", "count"}, {"fabric.wait_polls", "count"},
	{"fabric.steals", "count"}, {"fabric.merge_ms", "ms"},
	{"obs.trace_overhead_pct", "%"},
}

// tracedRun is the -trace 1 run: the workload once untraced and once
// traced for half the run length each, then a one-round traced probe of
// every other workload for the layers that are not on this workload's
// path, and the common prototype and kernel probes. It writes the
// Chrome trace and reports every per-layer metric.
func tracedRun(w *workload, o options, in *inputs, refs []string, dir string) (*report, error) {
	var t tally
	half := time.Duration(o.seconds) * time.Second / 2

	e := &env{in: in, refs: refs, dir: filepath.Join(dir, "untraced")}
	sys, _, err := coldStart(w, e, &t, 0)
	if err != nil {
		return nil, err
	}
	plain := runLoop(sys, in.pool, half, &t, nil)
	if err := sys.close(); err != nil {
		return nil, err
	}

	tr := newTracer()
	root := tr.workload(w.name)
	e = &env{in: in, refs: refs, dir: filepath.Join(dir, "traced"), tr: tr, lay: newLayers()}
	sys, _, err = coldStart(w, e, &t, 0)
	if err != nil {
		return nil, err
	}
	traced := runLoop(sys, in.pool, half, &t, e.lay)
	if err := sys.close(); err != nil {
		return nil, err
	}
	root.end()
	if err := w.layers(e); err != nil {
		return nil, err
	}
	if p, q := plain.scenariosPerSec(), traced.scenariosPerSec(); p > 0 {
		e.lay.set("obs.trace_overhead_pct", (p-q)/p*100)
	}

	vals := e.lay.vals
	// probed maps each metric that is not on this workload's path to the
	// workload whose probe measured it.
	probed := map[string]string{}
	for _, name := range probeOrder {
		if name == w.name {
			continue
		}
		pv, err := probe(workloads[name], o.seed, filepath.Join(dir, "probe-"+name))
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", name, err)
		}
		for k, v := range pv {
			if _, ok := vals[k]; !ok {
				vals[k] = v
				probed[k] = name
			}
		}
	}
	if err := commonProbes(vals); err != nil {
		return nil, err
	}

	self := tr.selfTimes()
	fmt.Println(selfTable(self))
	fmt.Println(probedLine(probed))
	if err := writeTrace(o, tr, self, probed); err != nil {
		return nil, err
	}
	rep := &report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for _, m := range perLayer {
		v, ok := vals[m.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
		rep.Metrics[m.name] = metric{v, m.unit}
	}
	return rep, nil
}

// probe runs one traced round of another workload, without the oracle,
// and returns the per-layer values it produced.
func probe(w *workload, seed int64, dir string) (map[string]float64, error) {
	in, err := w.inputs(seed)
	if err != nil {
		return nil, err
	}
	e := &env{in: in, dir: dir, tr: newTracer(), lay: newLayers()}
	var t tally
	sys, _, err := coldStart(w, e, &t, 0)
	if err != nil {
		return nil, err
	}
	runLoop(sys, in.pool, 0, &t, e.lay)
	if err := sys.close(); err != nil {
		return nil, err
	}
	if t.failed > 0 {
		return nil, fmt.Errorf("%d of %d probe campaigns failed", t.failed, t.attempted)
	}
	if err := w.layers(e); err != nil {
		return nil, err
	}
	return e.lay.vals, nil
}

// probedLine names, per owning workload, the reported metrics that its
// probe measured rather than the traced workload.
func probedLine(probed map[string]string) string {
	by := map[string][]string{}
	for k, owner := range probed {
		by[owner] = append(by[owner], k)
	}
	var parts []string
	for _, owner := range probeOrder {
		if ms := by[owner]; len(ms) > 0 {
			sort.Strings(ms)
			parts = append(parts, owner+": "+strings.Join(ms, " "))
		}
	}
	return "measured by probes of other workloads — " + strings.Join(parts, "; ")
}

// writeTrace writes the Chrome trace and the self-time table under
// <work>/traces.
func writeTrace(o options, tr *tracer, self map[string]float64, probed map[string]string) error {
	dir := filepath.Join(o.work, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	f, err := os.Create(base + ".trace.json")
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(map[string]any{"self_ms_per_campaign": self, "campaigns": tr.campaigns, "probed_from": probed}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".self.json", data, 0o644)
}

// engineLayers derives the engine-layer metrics a traced direct or
// fabric run collected through its wrapped sessions and registry.
func engineLayers(e *env, workers int) {
	l := e.lay
	n := float64(e.tr.campaigns)
	l.set("stressor.session_run_us", l.med("stressor.session_run"))
	l.set("stressor.sessions", l.sum("sessions")/n)
	if wall := l.sum("wall_ns"); wall > 0 {
		l.set("stressor.busy_ratio", l.sum("busy_ns")/(wall*float64(workers)))
	}
	for _, c := range []string{"tree_hits", "tree_extends", "tree_rebuilds", "tree_evictions"} {
		l.set("stressor."+c, l.counter("campaign."+c)/n)
	}
	if runs := l.sum("session_runs"); runs > 0 {
		l.set("stressor.early_exit_ratio", l.counter("campaign.early_exits")/runs)
	}
}

// capsEESpeedup is eeSpeedup on a fresh protected CAPS runner.
func capsEESpeedup(scs []fault.Scenario, workers int) (float64, error) {
	r, err := newCapsRunner()
	if err != nil {
		return 0, err
	}
	defer r.Close()
	return eeSpeedup(r.RunFunc(), r, scs, workers)
}

// commonProbes times the kernel's snapshot, restore and state hash on an
// elaborated CAPS prototype, both prototypes' golden runs (runner
// construction), and one pass of plain runs over a universe of each.
func commonProbes(vals map[string]float64) error {
	const reps = 200
	perOp := func(f func() error) (float64, error) {
		var xs []float64
		for b := 0; b < 9; b++ {
			t0 := time.Now()
			for i := 0; i < reps; i++ {
				if err := f(); err != nil {
					return 0, err
				}
			}
			xs = append(xs, float64(time.Since(t0))/float64(time.Microsecond)/reps)
		}
		return median(xs), nil
	}

	k := sim.NewKernel()
	defer k.Shutdown()
	sys, _ := caps.Build(k, caps.Protected(), caps.NormalDriving())
	if err := k.RunUntil(sim.MS(40)); err != nil {
		return err
	}
	var cp sim.Checkpoint
	var st any
	var err error
	if vals["sim.snapshot_us"], err = perOp(func() error {
		st = sys.SnapshotStateInto(st)
		return k.SnapshotInto(&cp)
	}); err != nil {
		return err
	}
	if vals["sim.restore_us"], err = perOp(func() error {
		sys.RestoreState(st)
		return k.Restore(&cp)
	}); err != nil {
		return err
	}
	ne, np := k.Elaborated()
	var sink uint64
	if vals["sim.hash_us"], err = perOp(func() error {
		h := sim.NewStateHash()
		k.HashScheduler(&h, ne, np)
		sys.HashState(&h)
		sink += h.Sum()
		return nil
	}); err != nil {
		return err
	}
	_ = sink

	var capsGolden, ecuGolden []float64
	var cr *caps.Runner
	var er *ecu.Runner
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		r, err := newCapsRunner()
		if err != nil {
			return err
		}
		capsGolden = append(capsGolden, float64(time.Since(t0))/float64(time.Microsecond))
		if cr != nil {
			cr.Close()
		}
		cr = r
		t0 = time.Now()
		r2, err := newECURunner()
		if err != nil {
			return err
		}
		ecuGolden = append(ecuGolden, float64(time.Since(t0))/float64(time.Microsecond))
		if er != nil {
			er.Close()
		}
		er = r2
	}
	defer cr.Close()
	defer er.Close()
	vals["caps.golden_run_us"] = median(capsGolden)
	vals["ecu.golden_run_us"] = median(ecuGolden)

	pass := func(run func(fault.Scenario) fault.Outcome, scs []fault.Scenario) float64 {
		var xs []float64
		for _, sc := range scs {
			t0 := time.Now()
			run(sc)
			xs = append(xs, float64(time.Since(t0))/float64(time.Microsecond))
		}
		return median(xs)
	}
	vals["caps.run_us"] = pass(cr.RunScenario, fault.Singles(e8At(cr, sim.MS(10))))
	vals["ecu.run_us"] = pass(er.RunScenario, fault.Singles(er.Universe(sim.NS(1000))))
	return nil
}
