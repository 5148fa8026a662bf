package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaignd"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/stressor"
)

// The fabric workload: per campaign an in-process coordinator leases
// one large CAPS universe, in more shards than workers, to two
// long-lived workers over loopback HTTP. The workers resolve specs
// through campaignd.FabricResolver, as capsim-worker does, and run
// sequential inner engines.

const fabricWorkers = 2

func init() {
	register(&workload{
		name: "fabric", setups: 10,
		inputs:    fabricInputs,
		reference: fabricReference,
		start:     startFabric,
		layers:    fabricLayers,
	})
}

func fabricReference(in *inputs) ([]string, error) {
	spec, err := campaignd.ParseSpec(in.specs[0])
	if err != nil {
		return nil, err
	}
	res, err := oracle(spec, in.scenarios[0])
	if err != nil {
		return nil, err
	}
	d, err := digest(res)
	if err != nil {
		return nil, err
	}
	return []string{d}, nil
}

type fabricSys struct {
	e         *env
	resolvers []fabric.Resolver
	client    *http.Client
	current   atomic.Value // http.Handler of the running coordinator
	srv       *http.Server
	served    chan error
	base      string
	n         int
}

func startFabric(e *env) (system, error) {
	f := &fabricSys{e: e, served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: fabricWorkers, MaxIdleConnsPerHost: fabricWorkers}},
	}
	for w := 0; w < fabricWorkers; w++ {
		res := campaignd.FabricResolver(nil)
		if e.tr != nil {
			res = wrapResolver(res, e.tr, e.lay)
		}
		f.resolvers = append(f.resolvers, res)
	}
	current := func() http.Handler { return f.current.Load().(http.Handler) }
	var h http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { current().ServeHTTP(w, r) })
	if e.tr != nil {
		h = &timedHandler{inner: current, t: e.tr, l: e.lay}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.srv = &http.Server{Handler: h}
	f.base = "http://" + ln.Addr().String()
	go func() { f.served <- f.srv.Serve(ln) }()
	return f, nil
}

func (f *fabricSys) close() error {
	f.client.CloseIdleConnections()
	err := f.srv.Close()
	if serr := <-f.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

func (f *fabricSys) campaign(i int) (campaignStats, error) {
	f.n++
	dir := filepath.Join(f.e.dir, fmt.Sprintf("c%d", f.n))
	defer os.RemoveAll(dir)
	raw := f.e.in.specs[i]
	sp := f.e.tr.beginCampaign(i)
	st := campaignStats{start: time.Now()}
	spec, runner, scenarios, err := campaignd.MaterializeSpec(raw)
	if err != nil {
		sp.end()
		return st, err
	}
	runner.Close()
	coord, err := fabric.NewCoordinator(fabric.CoordConfig{
		Campaign: spec.Campaign, Spec: raw, Scenarios: scenarios,
		Shards: fabricShards, DataDir: dir,
		Text: campaignd.FabricText(spec, len(scenarios)),
	})
	if err != nil {
		sp.end()
		return st, err
	}
	f.current.Store(coord.Handler())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, fabricWorkers)
	for w := 0; w < fabricWorkers; w++ {
		wk, err := fabric.NewWorker(fabric.WorkerConfig{
			Name: fmt.Sprintf("w%d", w), Coordinator: f.base, Resolve: f.resolvers[w],
			Heartbeat: 100 * time.Millisecond, Poll: 10 * time.Millisecond, Client: f.client,
		})
		if err != nil {
			sp.end()
			return st, err
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = wk.Run(ctx)
		}(w)
	}
	workersDone := make(chan struct{})
	go func() { wg.Wait(); close(workersDone) }()
	select {
	case <-coord.Done():
	case <-workersDone:
		// Every worker stopped; the coordinator may still have
		// finalized on the last flush.
		select {
		case <-coord.Done():
		default:
		}
	}
	res, done, err := coord.Result()
	st.done = time.Now()
	sp.end()
	<-workersDone
	cerr := coord.Close()
	if err == nil && !done {
		err = fmt.Errorf("fabric: workers stopped before the campaign finished")
	}
	if err = firstErr(append([]error{err, cerr}, errs...)...); err != nil {
		return st, err
	}

	rs := rowsOf(res.Outcomes)
	st.outcomes, st.unique = len(rs), distinctOutcomes(rs)
	err = firstErr(
		checkShape(f.e.in.scenarios[i], rs, tallyOf(res.Tally)),
		checkNoCampaignError(rs),
		checkCAPSSingleFaults(rs),
	)
	if err == nil && f.e.refs != nil {
		err = checkOracle("fabric merged result", res, f.e.refs[i])
	}
	if err != nil || f.e.lay == nil {
		return st, err
	}
	return st, f.note(dir, scenarios, res)
}

// note re-runs the coordinator's merge — read every shard journal, then
// stressor.Merge — to time it, and sizes the shard journals.
func (f *fabricSys) note(dir string, scenarios []fault.Scenario, want *stressor.Result) error {
	l := f.e.lay
	t0 := time.Now()
	var js []*journal.Journal
	var size int64
	for s := 0; s < fabricShards; s++ {
		path := filepath.Join(dir, fmt.Sprintf("shard-%d.journal", s))
		j, err := journal.Read(path)
		if err != nil {
			return err
		}
		js = append(js, j)
		if fi, err := os.Stat(path); err == nil {
			size += fi.Size()
		}
	}
	got, err := stressor.Merge(stressor.MergeSpec{}, scenarios, js)
	l.sample("fabric.merge", float64(time.Since(t0))/float64(time.Millisecond))
	if err != nil {
		return err
	}
	if len(got.Outcomes) != len(want.Outcomes) {
		return fmt.Errorf("fabric: re-merge holds %d outcomes, coordinator %d", len(got.Outcomes), len(want.Outcomes))
	}
	l.add("journal_bytes", float64(size))
	l.add("journal_entries", float64(len(want.Outcomes)))
	return nil
}

func fabricLayers(e *env) error {
	l := e.lay
	n := float64(e.tr.campaigns)
	l.set("fabric.resolve_ms", l.med("fabric.resolve"))
	l.set("fabric.lease_ms", l.med("fabric.lease"))
	l.set("fabric.flush_ms", l.med("fabric.flush"))
	l.set("fabric.merge_ms", l.med("fabric.merge"))
	for _, c := range []string{"leases", "flushes", "wait_polls", "steals"} {
		l.set("fabric."+c, l.sum(c)/n)
	}
	engineLayers(e, fabricWorkers)
	if n := l.sum("journal_entries"); n > 0 {
		l.set("journal.bytes_per_entry", l.sum("journal_bytes")/n)
	}
	sp, err := capsEESpeedup(e.in.scenarios[0], 0)
	if err != nil {
		return err
	}
	l.set("stressor.ee_speedup", sp)
	return nil
}
