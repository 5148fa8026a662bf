package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/caps"
	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/mdl"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stressor"
	"repro/internal/symex"
)

// The caps-adaptive workload: stressor.AdaptiveCampaign drives
// scenario.Novelty over the CAPS E8 universe, wired as capsim -adaptive
// wires it (concolic start-time corpus, pruning), on 2 workers with a
// binary journal. Each pool entry has its own novelty seed and repeats
// every round, so every repetition must be byte-identical.

const adaptiveWorkers = 2

func init() {
	register(&workload{
		name: "caps-adaptive", setups: 8,
		inputs:    adaptiveInputs,
		reference: adaptiveReference,
		start:     startAdaptive,
		layers:    adaptiveLayers,
	})
}

// concolicStarts is capsim's ATPG link: a concolic exploration of a
// small MDL guard model, folded into injection start times.
func concolicStarts(horizon sim.Time) ([]sim.Time, error) {
	guard, err := mdl.Parse(`
func clamp(v) {
  if v > 12 {
    return 12
  }
  return v
}
func guard(a, t) {
  if clamp(a) * 3 - t == 17 {
    return 1
  }
  if a - t > 9 {
    return 2
  }
  return 0
}`)
	if err != nil {
		return nil, err
	}
	ex, err := symex.Explore(guard, "guard", []int64{0, 0}, 32)
	if err != nil {
		return nil, err
	}
	return scenario.StartsFromCorpus(ex.Corpus, horizon), nil
}

// adaptiveCampaign wires one campaign the way capsim -adaptive does.
func adaptiveCampaign(r *caps.Runner, in *inputs, i int, starts []sim.Time, workers int) (*stressor.AdaptiveCampaign, journal.Header) {
	universe := r.Universe(sim.MS(10))
	fingerprint := stressor.UniverseHash(fault.Singles(universe))
	src := scenario.NewNovelty(universe, 4*in.budget, rand.New(rand.NewSource(in.noveltySeeds[i])))
	src.Mutator().Window = sim.MS(capsHorizon)
	src.Mutator().Starts = starts
	c := &stressor.AdaptiveCampaign{
		Name: "caps-adaptive", Run: r.SignedRunFunc(), Source: src,
		Workers: workers, MaxRuns: in.budget, Prune: true, Fingerprint: fingerprint,
	}
	h := journal.Header{Campaign: c.Name, Shards: 1, Total: in.budget, Universe: fingerprint, Adaptive: true}
	return c, h
}

// adaptiveReference is the same seed on the sequential (Workers: 0),
// rebuild-per-run (ReuseOff) engine.
func adaptiveReference(in *inputs) ([]string, error) {
	r, err := newCapsRunner()
	if err != nil {
		return nil, err
	}
	defer r.Close()
	r.ReuseOff = true
	starts, err := concolicStarts(sim.MS(capsHorizon))
	if err != nil {
		return nil, err
	}
	var refs []string
	for i := range in.noveltySeeds {
		c, _ := adaptiveCampaign(r, in, i, starts, 0)
		res, err := c.Execute()
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

type adaptiveSys struct {
	e      *env
	runner *caps.Runner
	starts []sim.Time
	n      int
}

func startAdaptive(e *env) (system, error) {
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	r, err := newCapsRunner()
	if err != nil {
		return nil, err
	}
	starts, err := concolicStarts(sim.MS(capsHorizon))
	if err != nil {
		r.Close()
		return nil, err
	}
	return &adaptiveSys{e: e, runner: r, starts: starts}, nil
}

func (a *adaptiveSys) close() error {
	a.runner.Close()
	return nil
}

func (a *adaptiveSys) campaign(i int) (campaignStats, error) {
	a.n++
	path := filepath.Join(a.e.dir, fmt.Sprintf("j%d.journal", a.n))
	defer os.Remove(path)
	sp := a.e.tr.beginCampaign(i)
	st := campaignStats{start: time.Now()}
	c, h := adaptiveCampaign(a.runner, a.e.in, i, a.starts, adaptiveWorkers)
	jw, err := journal.CreateCodec(path, h, journal.Binary)
	if err != nil {
		sp.end()
		return st, err
	}
	c.Journal = jw
	proposals := &proposalLog{ScenarioSource: c.Source}
	c.Source = proposals
	if t := a.e.tr; t != nil {
		c.Run = wrapRun(c.Run, "caps", t, a.e.lay)
		c.Source = &timedSource{inner: proposals, t: t, l: a.e.lay}
		c.Journal = &timedSink{inner: jw, t: t, l: a.e.lay}
	}
	res, err := c.Execute()
	if cerr := jw.Close(); err == nil {
		err = cerr
	}
	st.done = time.Now()
	sp.end()
	if err != nil {
		return st, err
	}

	rs := rowsOf(res.Outcomes)
	st.outcomes, st.unique = len(rs), res.UniqueSignatures
	j, err := journal.Read(path)
	if err != nil {
		return st, err
	}
	err = firstErr(
		checkShapeAdaptive(res, proposals.proposed),
		checkNoCampaignError(rs),
		checkCAPSSingleFaults(rs),
		checkAdaptiveJournal(res, j),
	)
	if err == nil && a.e.refs != nil {
		err = checkOracle("adaptive result", res, a.e.refs[i])
	}
	if err != nil || a.e.lay == nil {
		return st, err
	}
	l := a.e.lay
	l.add("pruned", float64(res.PrunedEquiv))
	l.add("unique", float64(res.UniqueSignatures))
	l.add("simulated", float64(res.Simulated))
	if fi, err := os.Stat(path); err == nil {
		l.add("journal_bytes", float64(fi.Size()))
		l.add("journal_entries", float64(len(j.Entries)))
	}
	return st, nil
}

// proposalLog records the scenarios a strategy proposes, in the order
// it proposes them.
type proposalLog struct {
	stressor.ScenarioSource
	proposed []fault.Scenario
}

func (p *proposalLog) Next() (fault.Scenario, bool) {
	sc, ok := p.ScenarioSource.Next()
	if ok {
		p.proposed = append(p.proposed, sc)
	}
	return sc, ok
}

// checkShapeAdaptive: one outcome per proposal the strategy made, in
// the order it made them, and a tally that agrees with the outcomes.
func checkShapeAdaptive(res *stressor.AdaptiveResult, proposed []fault.Scenario) error {
	if res.Proposed != len(res.Outcomes) {
		return fmt.Errorf("shape: result counts %d proposals, holds %d outcomes", res.Proposed, len(res.Outcomes))
	}
	return checkShape(proposed, rowsOf(res.Outcomes), tallyOf(res.Tally))
}

func adaptiveLayers(e *env) error {
	l := e.lay
	n := float64(e.tr.campaigns)
	l.set("scenario.next_us", l.med("scenario.next"))
	l.set("scenario.observe_us", l.med("scenario.observe"))
	l.set("scenario.pruned", l.sum("pruned")/n)
	if s := l.sum("simulated"); s > 0 {
		l.set("scenario.novel_ratio", l.sum("unique")/s)
	}
	l.set("journal.append_us", l.med("journal.append"))
	if n := l.sum("journal_entries"); n > 0 {
		l.set("journal.bytes_per_entry", l.sum("journal_bytes")/n)
	}
	if wall := l.sum("wall_ns"); wall > 0 {
		l.set("stressor.busy_ratio", l.sum("busy_ns")/(wall*adaptiveWorkers))
	}
	return nil
}
