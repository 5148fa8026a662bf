package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stressor"
)

// tracer records spans in memory from the benchmark's own files, around
// the calls into each layer, and mirrors them into an
// obs.TraceRecorder for the Chrome trace. Every span of a campaign
// carries that campaign's number; child spans name the campaign span
// as their parent. A nil *tracer records nothing.
type tracer struct {
	rec *obs.TraceRecorder

	mu        sync.Mutex
	spans     []spanRec
	nextID    int
	campaign  int // current campaign number
	campSpan  int // current campaign span id (0: none)
	workSpan  int
	lanes     []bool // Chrome trace rows in use
	campaigns int
}

type spanRec struct {
	id, parent, campaign int
	layer, name          string
	start, end           time.Time
}

type span struct {
	t    *tracer
	rec  spanRec
	lane int
	os   *obs.Span
}

func newTracer() *tracer { return &tracer{rec: obs.NewTraceRecorder()} }

// lane takes the lowest free trace row so that concurrent spans never
// share one.
func (t *tracer) lane() int {
	for i, used := range t.lanes {
		if !used {
			t.lanes[i] = true
			return i
		}
	}
	t.lanes = append(t.lanes, true)
	return len(t.lanes) - 1
}

func (t *tracer) begin(layer, name string, parent int) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	s := &span{t: t, lane: t.lane()}
	s.rec = spanRec{id: t.nextID, parent: parent, campaign: t.campaign, layer: layer, name: name}
	t.mu.Unlock()
	s.os = t.rec.Begin(layer, name, s.lane).Arg("campaign", s.rec.campaign)
	s.rec.start = time.Now()
	return s
}

// workload opens the run's root span.
func (t *tracer) workload(name string) *span {
	s := t.begin("bench", "workload "+name, 0)
	if s != nil {
		t.mu.Lock()
		t.workSpan = s.rec.id
		t.mu.Unlock()
	}
	return s
}

// beginCampaign opens campaign n's span; later child spans hang off it.
func (t *tracer) beginCampaign(n int) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.campaign = n
	t.campaigns++
	parent := t.workSpan
	t.mu.Unlock()
	s := t.begin("bench", "campaign", parent)
	t.mu.Lock()
	t.campSpan = s.rec.id
	t.mu.Unlock()
	return s
}

// child opens a span under the current campaign.
func (t *tracer) child(layer, name string) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	parent := t.campSpan
	t.mu.Unlock()
	return t.begin(layer, name, parent)
}

func (s *span) end() {
	if s == nil {
		return
	}
	s.rec.end = time.Now()
	s.os.End()
	t := s.t
	t.mu.Lock()
	t.lanes[s.lane] = false
	t.spans = append(t.spans, s.rec)
	t.mu.Unlock()
}

// selfTimes is each layer's self time — span durations minus the part
// of each span its child spans cover — in ms per traced campaign.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][]spanRec{}
	for _, s := range t.spans {
		kids[s.parent] = append(kids[s.parent], s)
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		self := s.end.Sub(s.start) - covered(s, kids[s.id])
		out[s.layer] += float64(self) / float64(time.Millisecond)
	}
	if t.campaigns > 0 {
		for k := range out {
			out[k] /= float64(t.campaigns)
		}
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(p spanRec, kids []spanRec) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.start, k.end
		if a.Before(p.start) {
			a = p.start
		}
		if b.After(p.end) {
			b = p.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

func (t *tracer) writeChrome(w io.Writer) error { return t.rec.WriteJSON(w) }

// layers collects per-layer samples and counters during a traced run;
// each workload's layer function turns them into metric values.
type layers struct {
	mu      sync.Mutex
	samples map[string][]float64
	sums    map[string]float64
	vals    map[string]float64
	// reg receives the engine's own counters (tree, early exit).
	reg *obs.Registry
}

func newLayers() *layers {
	return &layers{samples: map[string][]float64{}, sums: map[string]float64{}, vals: map[string]float64{}, reg: obs.NewRegistry()}
}

func (l *layers) sample(key string, v float64) {
	l.mu.Lock()
	l.samples[key] = append(l.samples[key], v)
	l.mu.Unlock()
}

func (l *layers) add(key string, v float64) {
	l.mu.Lock()
	l.sums[key] += v
	l.mu.Unlock()
}

func (l *layers) set(key string, v float64) {
	l.mu.Lock()
	l.vals[key] = v
	l.mu.Unlock()
}

func (l *layers) med(key string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return median(l.samples[key])
}

func (l *layers) sum(key string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sums[key]
}

// counter sums every registry counter with the given base name.
func (l *layers) counter(name string) float64 {
	var v float64
	for _, m := range l.reg.Snapshot() {
		if m.Kind == "counter" && m.Name == name {
			v += m.Value
		}
	}
	return v
}

// wrapRun times each run of a RunFunc: a span in the prototype's layer,
// a duration sample and busy time.
func wrapRun(run stressor.RunFunc, layer string, t *tracer, l *layers) stressor.RunFunc {
	return func(sc fault.Scenario) fault.Outcome {
		sp := t.child(layer, "run")
		t0 := time.Now()
		out := run(sc)
		d := time.Since(t0)
		sp.end()
		l.sample(layer+".run", float64(d)/float64(time.Microsecond))
		l.add("busy_ns", float64(d))
		return out
	}
}

// timedCheckpointer wraps a runner's TreeCheckpointer so every session
// it hands out is counted and every session run is timed.
type timedCheckpointer struct {
	inner stressor.TreeCheckpointer
	layer string
	t     *tracer
	l     *layers
}

func (c *timedCheckpointer) ForkTime(sc fault.Scenario) (sim.Time, bool) { return c.inner.ForkTime(sc) }

func (c *timedCheckpointer) NewSession() stressor.CheckpointSession {
	c.l.add("sessions", 1)
	return &timedSession{inner: c.inner.NewSession(), c: c}
}

func (c *timedCheckpointer) NewTreeSession(cfg stressor.TreeConfig) stressor.CheckpointSession {
	c.l.add("sessions", 1)
	return &timedSession{inner: c.inner.NewTreeSession(cfg), c: c}
}

type timedSession struct {
	inner stressor.CheckpointSession
	c     *timedCheckpointer
}

func (s *timedSession) Run(sc fault.Scenario, fork sim.Time) fault.Outcome {
	sp := s.c.t.child(s.c.layer, "session.run")
	t0 := time.Now()
	out := s.inner.Run(sc, fork)
	d := time.Since(t0)
	sp.end()
	s.c.l.sample("stressor.session_run", float64(d)/float64(time.Microsecond))
	s.c.l.add("busy_ns", float64(d))
	s.c.l.add("session_runs", 1)
	return out
}

func (s *timedSession) Close() { s.inner.Close() }

// Recycle forwards to the wrapped session so abandoned sessions still
// return their nodes to the runner pool.
func (s *timedSession) Recycle() {
	if rs, ok := s.inner.(stressor.RecyclableSession); ok {
		rs.Recycle()
	}
}

// timedSource wraps an adaptive ScenarioSource.
type timedSource struct {
	inner stressor.ScenarioSource
	t     *tracer
	l     *layers
}

func (s *timedSource) Next() (fault.Scenario, bool) {
	sp := s.t.child("scenario", "next")
	t0 := time.Now()
	sc, ok := s.inner.Next()
	s.l.sample("scenario.next", float64(time.Since(t0))/float64(time.Microsecond))
	sp.end()
	return sc, ok
}

func (s *timedSource) Observe(o fault.Outcome) {
	sp := s.t.child("scenario", "observe")
	t0 := time.Now()
	s.inner.Observe(o)
	s.l.sample("scenario.observe", float64(time.Since(t0))/float64(time.Microsecond))
	sp.end()
}

// timedSink wraps a JournalSink.
type timedSink struct {
	inner stressor.JournalSink
	t     *tracer
	l     *layers
}

func (s *timedSink) Append(e journal.Entry) error {
	sp := s.t.child("journal", "append")
	t0 := time.Now()
	err := s.inner.Append(e)
	s.l.sample("journal.append", float64(time.Since(t0))/float64(time.Microsecond))
	sp.end()
	return err
}

// wrapResolver times a fabric worker's resolver and instruments the
// campaign template it returns: timed runs and sessions, and the
// engine's counters into the layers registry.
func wrapResolver(res fabric.Resolver, t *tracer, l *layers) fabric.Resolver {
	return func(spec json.RawMessage) (*fabric.Resolved, error) {
		sp := t.child("campaignd", "resolve")
		t0 := time.Now()
		r, err := res(spec)
		l.sample("fabric.resolve", float64(time.Since(t0))/float64(time.Millisecond))
		sp.end()
		if err != nil {
			return nil, err
		}
		c := *r.Campaign
		c.Run = wrapRun(c.Run, "caps", t, l)
		if tc, ok := c.Checkpointer.(stressor.TreeCheckpointer); ok {
			c.Checkpointer = &timedCheckpointer{inner: tc, layer: "caps", t: t, l: l}
		}
		c.Metrics = l.reg
		return &fabric.Resolved{Scenarios: r.Scenarios, Campaign: &c}, nil
	}
}

// timedHandler wraps the coordinator's HTTP handler: a span per
// request by route, and per-route latency; lease responses are read
// to count grants, waits and re-grants.
type timedHandler struct {
	inner func() http.Handler
	t     *tracer
	l     *layers
}

type recorder struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (r *recorder) Write(p []byte) (int, error) {
	r.body.Write(p)
	return r.ResponseWriter.Write(p)
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := r.URL.Path
	if strings.HasSuffix(route, "/flush") {
		route = "/leases/{shard}/flush"
	}
	sp := h.t.child("fabric", r.Method+" "+route)
	rec := &recorder{ResponseWriter: w}
	t0 := time.Now()
	h.inner().ServeHTTP(rec, r)
	d := float64(time.Since(t0)) / float64(time.Millisecond)
	sp.end()
	switch route {
	case "/leases":
		var lease fabric.Lease
		if json.Unmarshal(rec.body.Bytes(), &lease) == nil {
			switch lease.Status {
			case fabric.StatusGranted:
				h.l.sample("fabric.lease", d)
				h.l.add("leases", 1)
				if lease.Attempt > 1 {
					h.l.add("steals", 1)
				}
			case fabric.StatusWait:
				h.l.add("wait_polls", 1)
			}
		}
	case "/leases/{shard}/flush":
		h.l.sample("fabric.flush", d)
		h.l.add("flushes", 1)
	}
}

// selfTable renders self times for standard output.
func selfTable(self map[string]float64) string {
	var names []string
	for k := range self {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("layer self time (ms per traced campaign):")
	for _, k := range names {
		b.WriteString(" " + k + "=" + strconv.FormatFloat(self[k], 'f', 3, 64))
	}
	return b.String()
}
