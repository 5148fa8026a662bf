package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/campaignd"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/stressor"
)

// The daemon workload: an in-process capsimd (campaignd.Scheduler plus
// Server on loopback HTTP) receives a stream of small inline CAPS
// specs from one closed-loop client.

func init() {
	register(&workload{
		name: "daemon", setups: 30,
		inputs:    daemonInputs,
		reference: daemonReference,
		start:     startDaemon,
		layers:    daemonLayers,
	})
}

// daemonReference runs each spec's universe through the rebuild-per-run
// engine (ReuseOff, no checkpoints, sequential) and renders the result
// document the daemon must serve, with the run id left blank.
func daemonReference(in *inputs) ([]string, error) {
	var refs []string
	for j, raw := range in.specs {
		spec, err := campaignd.ParseSpec(raw)
		if err != nil {
			return nil, err
		}
		res, err := oracle(spec, in.scenarios[j])
		if err != nil {
			return nil, err
		}
		doc := campaignd.BuildResultDoc("", len(in.scenarios[j]), res, campaignd.Summary{
			World: spec.Universe.World, Protected: !spec.Universe.Unprotected,
			Scenarios: len(in.scenarios[j]), Workers: spec.Workers,
			Inline: spec.Inline(), Result: res,
		})
		d, err := digest(doc)
		if err != nil {
			return nil, err
		}
		refs = append(refs, d)
	}
	return refs, nil
}

// oracle is the rebuild-per-run engine over a spec's universe.
func oracle(spec *campaignd.Spec, scs []fault.Scenario) (*stressor.Result, error) {
	r, err := spec.BuildRunner()
	if err != nil {
		return nil, err
	}
	defer r.Close()
	r.ReuseOff = true
	return (&stressor.Campaign{Name: spec.Campaign, Run: r.RunFunc()}).Execute(scs)
}

type daemonSys struct {
	e      *env
	sched  *campaignd.Scheduler
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
}

func startDaemon(e *env) (system, error) {
	sched, err := campaignd.NewScheduler(campaignd.Config{DataDir: e.dir})
	if err != nil {
		return nil, err
	}
	sched.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sched.Stop()
		return nil, err
	}
	d := &daemonSys{
		e: e, sched: sched, served: make(chan error, 1),
		srv:  &http.Server{Handler: campaignd.NewServer(sched)},
		base: "http://" + ln.Addr().String(),
		// One client, so at most two connections: the event stream and
		// the result fetch of the same campaign.
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}},
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

func (d *daemonSys) close() error {
	if l := d.e.lay; l != nil {
		builds, hits := d.sched.RunnerCacheStats()
		l.set("campaignd.runner_cache_builds", float64(builds))
		l.set("campaignd.runner_cache_hits", float64(hits))
	}
	d.client.CloseIdleConnections()
	err := d.srv.Close()
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.sched.Stop()
	return err
}

// request performs one HTTP call and returns the body; with a route it
// is a campaignd span of the current campaign.
func (d *daemonSys) request(method, path string, body []byte, route string) ([]byte, time.Duration, error) {
	if route != "" {
		sp := d.e.tr.child("campaignd", method+" "+route)
		defer sp.end()
	}
	t0 := time.Now()
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, 0, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, time.Since(t0), nil
}

// await streams the run's events until the final one and reports when
// the run left the queue.
func (d *daemonSys) await(id string) (running time.Time, err error) {
	sp := d.e.tr.child("campaignd", "GET /runs/{id}/events")
	defer sp.end()
	resp, err := d.client.Get(d.base + "/runs/" + id + "/events")
	if err != nil {
		return running, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev campaignd.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return running, fmt.Errorf("events: %w", err)
		}
		if ev.Type == "state" && ev.State == campaignd.StateRunning && running.IsZero() {
			running = time.Now()
		}
		if ev.Final {
			if ev.State != campaignd.StateDone {
				return running, fmt.Errorf("run %s ended %s: %s", id, ev.State, ev.Error)
			}
			return running, nil
		}
	}
	if err := sc.Err(); err != nil {
		return running, err
	}
	return running, fmt.Errorf("run %s: event stream ended without a final state", id)
}

func (d *daemonSys) campaign(i int) (campaignStats, error) {
	raw := d.e.in.specs[i]
	sp := d.e.tr.beginCampaign(i)
	st := campaignStats{start: time.Now()}
	body, submitD, err := d.request(http.MethodPost, "/runs", raw, "/runs")
	if err != nil {
		sp.end()
		return st, err
	}
	submitted := time.Now()
	var sub struct{ ID string }
	if err := json.Unmarshal(body, &sub); err != nil {
		sp.end()
		return st, err
	}
	running, err := d.await(sub.ID)
	if err != nil {
		sp.end()
		return st, err
	}
	data, resultD, err := d.request(http.MethodGet, "/runs/"+sub.ID+"/result", nil, "/runs/{id}/result")
	st.done = time.Now()
	sp.end()
	if err != nil {
		return st, err
	}

	var doc campaignd.ResultDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return st, fmt.Errorf("result document: %w", err)
	}
	rs := rowsOfDoc(&doc)
	st.outcomes, st.unique = len(rs), distinctOutcomes(rs)
	err = firstErr(
		checkShape(d.e.in.scenarios[i], rs, doc.Tally),
		checkNoCampaignError(rs),
		checkCAPSSingleFaults(rs),
	)
	if err == nil && d.e.refs != nil {
		doc.ID = ""
		err = checkOracle("daemon result document", doc, d.e.refs[i])
	}
	if err != nil || d.e.lay == nil {
		return st, err
	}
	return st, d.note(sub.ID, st, submitD, resultD, running.Sub(submitted))
}

// note records one traced campaign's daemon-side figures: the
// client-seen phases and the run's own metrics document.
func (d *daemonSys) note(id string, st campaignStats, submit, result, queued time.Duration) error {
	l := d.e.lay
	ms := func(x time.Duration) float64 { return float64(x) / float64(time.Millisecond) }
	l.sample("campaignd.submit", ms(submit))
	l.sample("campaignd.result", ms(result))
	l.sample("campaignd.queue_wait", ms(queued))
	// Bookkeeping, not part of the campaign: no span.
	data, _, err := d.request(http.MethodGet, "/runs/"+id+"/metrics", nil, "")
	if err != nil {
		return err
	}
	var m struct {
		Counters   map[string]float64
		Gauges     map[string]float64
		Histograms map[string]obs.Metric
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("run metrics: %w", err)
	}
	get := func(kind map[string]float64, name string) float64 {
		var v float64
		for k, x := range kind {
			if k == name || strings.HasPrefix(k, name+"{") {
				v += x
			}
		}
		return v
	}
	exec := get(m.Counters, "campaign.elapsed_ns") / 1e6
	l.sample("campaignd.exec", exec)
	l.sample("campaignd.overhead", ms(st.turnaround())-exec)
	for _, c := range []string{"tree_hits", "tree_extends", "tree_rebuilds", "tree_evictions", "early_exits", "runs"} {
		l.add(c, get(m.Counters, "campaign."+c))
	}
	l.sample("busy_ratio", get(m.Gauges, "campaign.worker_utilization"))
	for k, h := range m.Histograms {
		if strings.HasPrefix(k, "campaign.scenario_duration_ns") {
			l.sample("stressor.session_run", float64(h.Quantile(0.5))/1e3)
		}
	}
	if fi, err := os.Stat(filepath.Join(d.sched.Store().RunDir(id), "journal.jsonl")); err == nil {
		l.add("journal_bytes", float64(fi.Size()))
		l.add("journal_entries", float64(st.outcomes))
	}
	return nil
}

func daemonLayers(e *env) error {
	l := e.lay
	n := float64(len(l.samples["campaignd.submit"]))
	for _, k := range []string{"submit", "queue_wait", "exec", "overhead", "result"} {
		l.set("campaignd."+k+"_ms", l.med("campaignd."+k))
	}
	l.set("stressor.session_run_us", l.med("stressor.session_run"))
	l.set("stressor.busy_ratio", l.med("busy_ratio"))
	for _, c := range []string{"tree_hits", "tree_extends", "tree_rebuilds", "tree_evictions"} {
		l.set("stressor."+c, l.sum(c)/n)
	}
	if runs := l.sum("runs"); runs > 0 {
		l.set("stressor.early_exit_ratio", l.sum("early_exits")/runs)
	}
	if n := l.sum("journal_entries"); n > 0 {
		l.set("journal.bytes_per_entry", l.sum("journal_bytes")/n)
	}
	sp, err := capsEESpeedup(e.in.scenarios[0], 2)
	if err != nil {
		return err
	}
	l.set("stressor.ee_speedup", sp)
	return nil
}
