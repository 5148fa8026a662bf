package main

import (
	"time"

	"repro/internal/ecu"
	"repro/internal/fault"
	"repro/internal/stressor"
)

// The ecu-seu workload: a fixed ecu.Runner SEU universe, injected while
// the golden program still runs, on the direct engine with checkpoint
// tree and early exit on 2 workers. It shares no CAPS code.

const ecuWorkers = 2

func init() {
	register(&workload{
		name: "ecu-seu", setups: 4,
		inputs:    ecuInputs,
		reference: ecuReference,
		start:     startECU,
		layers:    ecuLayers,
	})
}

func newECURunner() (*ecu.Runner, error) { return ecu.NewRunner(ecu.DefaultRunnerConfig()) }

func ecuReference(in *inputs) ([]string, error) {
	r, err := newECURunner()
	if err != nil {
		return nil, err
	}
	defer r.Close()
	r.ReuseOff = true
	var refs []string
	for _, scs := range in.scenarios {
		res, err := (&stressor.Campaign{Name: "ecu-seu", Run: r.RunFunc()}).Execute(scs)
		if err != nil {
			return nil, err
		}
		d, err := digest(res)
		if err != nil {
			return nil, err
		}
		refs = append(refs, d)
	}
	return refs, nil
}

type ecuSys struct {
	e      *env
	runner *ecu.Runner
}

func startECU(e *env) (system, error) {
	r, err := newECURunner()
	if err != nil {
		return nil, err
	}
	return &ecuSys{e: e, runner: r}, nil
}

func (s *ecuSys) close() error {
	s.runner.Close()
	return nil
}

// treeCampaign is the direct engine with checkpoint tree and, when
// early is set, early exit.
func treeCampaign(name string, run stressor.RunFunc, cp stressor.TreeCheckpointer, workers int, early bool) *stressor.Campaign {
	return &stressor.Campaign{
		Name: name, Run: run, Workers: workers,
		Checkpoints: true, Checkpointer: cp, CheckpointTree: true, EarlyExit: early,
	}
}

func (s *ecuSys) campaign(i int) (campaignStats, error) {
	c := treeCampaign("ecu-seu", s.runner.RunFunc(), s.runner, ecuWorkers, true)
	if t := s.e.tr; t != nil {
		c.Run = wrapRun(c.Run, "ecu", t, s.e.lay)
		c.Checkpointer = &timedCheckpointer{inner: s.runner, layer: "ecu", t: t, l: s.e.lay}
		c.Metrics = s.e.lay.reg
	}
	sp := s.e.tr.beginCampaign(i)
	st := campaignStats{start: time.Now()}
	res, err := c.Execute(s.e.in.scenarios[i])
	st.done = time.Now()
	sp.end()
	if err != nil {
		return st, err
	}
	rs := rowsOf(res.Outcomes)
	st.outcomes, st.unique = len(rs), distinctOutcomes(rs)
	err = firstErr(
		checkShape(s.e.in.scenarios[i], rs, tallyOf(res.Tally)),
		checkNoCampaignError(rs),
		checkECULiveWindow(rs),
	)
	if err == nil && s.e.refs != nil {
		err = checkOracle("ecu-seu result", res, s.e.refs[i])
	}
	return st, err
}

func ecuLayers(e *env) error {
	engineLayers(e, ecuWorkers)
	r, err := newECURunner()
	if err != nil {
		return err
	}
	defer r.Close()
	sp, err := eeSpeedup(r.RunFunc(), r, e.in.scenarios[0], ecuWorkers)
	if err != nil {
		return err
	}
	e.lay.set("stressor.ee_speedup", sp)
	return nil
}

// eeSpeedup times the same universe on the tree engine with early exit
// off and on and returns off ÷ on, over medians of three campaigns
// each.
func eeSpeedup(run stressor.RunFunc, cp stressor.TreeCheckpointer, scs []fault.Scenario, workers int) (float64, error) {
	var times [2][]float64
	for k := 0; k < 3; k++ {
		for m, early := range []bool{false, true} {
			t0 := time.Now()
			if _, err := treeCampaign("ee-speedup", run, cp, workers, early).Execute(scs); err != nil {
				return 0, err
			}
			times[m] = append(times[m], time.Since(t0).Seconds())
		}
	}
	return median(times[0]) / median(times[1]), nil
}
