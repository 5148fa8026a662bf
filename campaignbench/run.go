package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/fault"
)

// defaultSeed is the seed the README's recorded runs start from.
const defaultSeed = 1

// workload is one benchmark workload: how to generate its inputs from
// a seed, how to compute the oracle results apart from the measured
// process, and how to start the system under test.
type workload struct {
	name string
	// setups is how many cold starts a measured run makes; setup_s is
	// their median.
	setups int
	inputs func(seed int64) (*inputs, error)
	// reference computes the oracle result's digest for each pool entry.
	reference func(in *inputs) ([]string, error)
	start     func(e *env) (system, error)
	// layers turns what a traced run collected into the workload's
	// per-layer metric values.
	layers func(e *env) error
}

var workloads = map[string]*workload{}

// probeOrder is the order in which the other workloads are probed for
// per-layer metrics that are not on a traced workload's own path.
var probeOrder = []string{"fabric", "daemon", "ecu-seu", "caps-adaptive"}

func register(w *workload) { workloads[w.name] = w }

// inputs are a workload's generated inputs. Each round of the closed
// loop hands every pool entry to the system once, in order.
type inputs struct {
	pool int
	// specs are capsimd campaign specs (daemon: one per pool entry;
	// fabric: one).
	specs [][]byte
	// scenarios are the universes the specs or the direct engine run,
	// one per pool entry.
	scenarios [][]fault.Scenario
	// noveltySeeds (one per pool entry) and budget configure
	// caps-adaptive.
	noveltySeeds []int64
	budget       int
}

// env is what a started system needs.
type env struct {
	in *inputs
	// refs are the oracle results' digests; nil on probes, which skip
	// the oracle comparison.
	refs []string
	dir  string
	tr   *tracer // nil when untraced
	lay  *layers // nil when untraced
}

// system is a started workload: campaign hands pool entry i to it,
// waits for the result and checks it. The returned stats are valid
// when err is nil; a non-nil err counts the campaign as failed.
type system interface {
	campaign(i int) (campaignStats, error)
	close() error
}

// campaignStats is one campaign's measurement: its turnaround, from
// handing the campaign to the system to holding its result, and what
// the result held.
type campaignStats struct {
	start, done time.Time
	outcomes    int
	unique      int
}

func (s campaignStats) turnaround() time.Duration { return s.done.Sub(s.start) }

// tally counts attempted and failed campaigns.
type tally struct {
	attempted, failed int
}

func (t *tally) note(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintln(os.Stderr, "campaign failed:", err)
	}
}

// loopStats summarises a timed loop.
type loopStats struct {
	turnarounds []float64 // seconds, successful campaigns only
	outcomes    int
	unique      []float64
}

func (l *loopStats) merge(m loopStats) {
	l.turnarounds = append(l.turnarounds, m.turnarounds...)
	l.outcomes += m.outcomes
	l.unique = append(l.unique, m.unique...)
}

func (l *loopStats) scenariosPerSec() float64 {
	var busy float64
	for _, t := range l.turnarounds {
		busy += t
	}
	if busy == 0 {
		return 0
	}
	return float64(l.outcomes) / busy
}

// runLoop is the closed loop: whole rounds over the pool, each
// campaign handed over only after the previous one was checked, until
// d has passed (at least one round, also for d <= 0).
func runLoop(sys system, pool int, d time.Duration, t *tally, lay *layers) loopStats {
	var l loopStats
	start := time.Now()
	for {
		for i := 0; i < pool; i++ {
			st, err := sys.campaign(i)
			t.note(err)
			if err != nil {
				continue
			}
			l.turnarounds = append(l.turnarounds, st.turnaround().Seconds())
			if lay != nil {
				lay.add("wall_ns", float64(st.turnaround()))
			}
			l.outcomes += st.outcomes
			l.unique = append(l.unique, float64(st.unique))
		}
		if time.Since(start) >= d {
			return l
		}
	}
}

// coldStart starts a fresh system and runs pool entry i as its first
// campaign, returning the set-up time: from the first call into the
// program to the first campaign result.
func coldStart(w *workload, e *env, t *tally, i int) (system, float64, error) {
	t0 := time.Now()
	sys, err := w.start(e)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: start: %w", w.name, err)
	}
	st, err := sys.campaign(i)
	t.note(err)
	if err != nil {
		return sys, time.Since(t0).Seconds(), nil
	}
	if e.lay != nil {
		e.lay.add("wall_ns", float64(st.turnaround()))
	}
	return sys, st.done.Sub(t0).Seconds(), nil
}

// measuredRun is the untraced run that reports the end-to-end metrics.
// It splits the run into w.setups segments; each starts a fresh system
// with a timed cold start and then runs the closed loop on it until the
// segment's share of the run has passed. Spreading the cold starts over
// the run exposes them to the same stretch of machine time as the loop,
// so a short burst of contention moves one set-up sample, not all.
func measuredRun(w *workload, o options, in *inputs, refs []string, dir string) (*report, error) {
	var t tally
	var setups []float64
	var l loopStats
	run := time.Duration(o.seconds) * time.Second
	start, clock := time.Now(), startSteal()
	for k := 0; k < w.setups; k++ {
		e := &env{in: in, refs: refs, dir: filepath.Join(dir, fmt.Sprintf("setup%d", k))}
		// Successive cold starts take successive pool entries, so the
		// median does not rest on one entry's universe.
		sys, secs, err := coldStart(w, e, &t, k%in.pool)
		if err != nil {
			return nil, err
		}
		setups = append(setups, secs)
		segmentEnd := run * time.Duration(k+1) / time.Duration(w.setups)
		l.merge(runLoop(sys, in.pool, segmentEnd-time.Since(start), &t, nil))
		if err := sys.close(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(e.dir); err != nil {
			return nil, err
		}
	}
	stolen := clock.share()
	raw := map[string]float64{
		"scenarios_per_s": l.scenariosPerSec(),
		"campaign_ms":     median(l.turnarounds) * 1e3,
		"setup_s":         median(setups),
	}
	fmt.Printf("raw: steal_pct=%.2f campaign_ms=%.4f scenarios_per_s=%.2f setup_s=%.6f\n",
		stolen*100, raw["campaign_ms"], raw["scenarios_per_s"], raw["setup_s"])
	free := 1 - stolen
	return &report{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics: map[string]metric{
			"scenarios_per_s": {raw["scenarios_per_s"] / free, "1/s"},
			"campaign_ms":     {raw["campaign_ms"] * free, "ms"},
			"setup_s":         {raw["setup_s"] * free, "s"},
			"peak_rss_mb":     {peakRSSMiB(), "MiB"},
			"unique_outcomes": {median(l.unique), "count"},
		},
	}, nil
}

// peakRSSMiB reads the process's peak resident set.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// stealClock measures what share of the machine's runnable CPU time
// the hypervisor stole over an interval, from the busy and steal
// columns of /proc/stat: stolen ÷ (busy + stolen). Steal accrues only
// while a vCPU has work, so this share does not depend on how many
// vCPUs the code under test keeps busy; stolen ÷ (wall × CPUs) would.
// On a shared virtual machine it comes and goes with other tenants'
// load and stretches the work's wall-clock time by 1 ÷ (1 − share);
// the end-to-end times are reported net of it, and the wall-clock
// figures are printed beside them.
type stealClock struct{ c0 cpuTicks }

// cpuTicks are the machine's cumulative busy and stolen CPU time, in
// USER_HZ ticks.
type cpuTicks struct{ busy, steal int64 }

func startSteal() stealClock { return stealClock{readCPUTicks()} }

// share is the stolen share of the runnable CPU time since the clock
// started (0 where /proc/stat is unavailable).
func (c stealClock) share() float64 {
	now := readCPUTicks()
	busy, stolen := float64(now.busy-c.c0.busy), float64(now.steal-c.c0.steal)
	if stolen <= 0 || busy <= 0 {
		return 0
	}
	return stolen / (busy + stolen)
}

// readCPUTicks reads the first line of /proc/stat: user nice system
// idle iowait irq softirq steal ...; busy is user + nice + system +
// irq + softirq.
func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var v [8]int64
	for i := range v {
		n, err := strconv.ParseInt(f[i+1], 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		v[i] = n
	}
	return cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}
