package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaignd"
	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/sim"
	"repro/internal/stressor"
)

// TestShortPass runs every workload for one round, untraced, against
// its oracle, and one traced run, which also probes every other
// workload.
func TestShortPass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range probeOrder {
		t.Run(name, func(t *testing.T) {
			w := workloads[name]
			in, err := w.inputs(defaultSeed)
			if err != nil {
				t.Fatal(err)
			}
			refs, err := w.reference(in)
			if err != nil {
				t.Fatal(err)
			}
			if len(refs) != in.pool {
				t.Fatalf("%d oracle documents for a pool of %d", len(refs), in.pool)
			}
			o := options{workload: name, seed: defaultSeed, work: t.TempDir()}
			rep, err := measuredRun(w, o, in, refs, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < w.setups+in.pool {
				t.Fatalf("report %+v", rep)
			}
			for _, m := range []string{"scenarios_per_s", "campaign_ms", "setup_s", "peak_rss_mb", "unique_outcomes"} {
				if rep.Metrics[m].Value <= 0 {
					t.Errorf("%s = %v, want > 0", m, rep.Metrics[m].Value)
				}
			}
			if name != "daemon" {
				return
			}
			rep, err = tracedRun(w, o, in, refs, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || len(rep.Metrics) != len(perLayer) {
				t.Fatalf("traced report: correct=%v, %d metrics, want %d", rep.Correct, len(rep.Metrics), len(perLayer))
			}
			if got := rep.Metrics["stressor.ee_speedup"].Value; got <= 0 {
				t.Errorf("stressor.ee_speedup = %v", got)
			}
		})
	}
}

// capsResult is a real result to tamper with: the E8 universe at 10 ms
// on the plain engine.
func capsResult(t *testing.T) ([]fault.Scenario, *stressor.Result) {
	t.Helper()
	r, err := newCapsRunner()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	scs := fault.Singles(e8At(r, sim.MS(10)))
	res, err := (&stressor.Campaign{Name: "tamper", Run: r.RunFunc()}).Execute(scs)
	if err != nil {
		t.Fatal(err)
	}
	return scs, res
}

// flip returns a copy of outs with outcome i's class replaced.
func flip(outs []fault.Outcome, i int, to fault.Classification) []fault.Outcome {
	cp := append([]fault.Outcome(nil), outs...)
	cp[i].Class = to
	return cp
}

// other is a class different from c.
func other(c fault.Classification) fault.Classification {
	if c == fault.Masked {
		return fault.Latent
	}
	return fault.Masked
}

func mustReject(t *testing.T, err error, what string) {
	t.Helper()
	if err == nil {
		t.Fatalf("tampered result passed the %s check", what)
	}
}

func TestTamperedShapeRejected(t *testing.T) {
	scs, res := capsResult(t)
	if err := checkShape(scs, rowsOf(res.Outcomes), tallyOf(res.Tally)); err != nil {
		t.Fatal(err)
	}
	tampered := flip(res.Outcomes, 3, other(res.Outcomes[3].Class))
	mustReject(t, checkShape(scs, rowsOf(tampered), tallyOf(res.Tally)), "shape")
}

func TestTamperedOracleRejected(t *testing.T) {
	_, res := capsResult(t)
	want, err := digest(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkOracle("result", res, want); err != nil {
		t.Fatal(err)
	}
	tampered := *res
	tampered.Outcomes = flip(res.Outcomes, 5, other(res.Outcomes[5].Class))
	mustReject(t, checkOracle("result", &tampered, want), "oracle")
}

func TestTamperedCampaignErrorRejected(t *testing.T) {
	_, res := capsResult(t)
	if err := checkNoCampaignError(rowsOf(res.Outcomes)); err != nil {
		t.Fatal(err)
	}
	// The runners report an infrastructure failure as detected-safe
	// with a "campaign error" detail.
	tampered := flip(res.Outcomes, 0, fault.DetectedSafe)
	tampered[0].Detail = "campaign error: injector missing"
	mustReject(t, checkNoCampaignError(rowsOf(tampered)), "campaign-error")
}

func TestTamperedSafetyCriticalRejected(t *testing.T) {
	_, res := capsResult(t)
	if err := checkCAPSSingleFaults(rowsOf(res.Outcomes)); err != nil {
		t.Fatal(err)
	}
	mustReject(t, checkCAPSSingleFaults(rowsOf(flip(res.Outcomes, 7, fault.SafetyCritical))), "single-fault safety")
}

func TestTamperedECULiveWindowRejected(t *testing.T) {
	in, err := ecuInputs(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newECURunner()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	res, err := (&stressor.Campaign{Name: "tamper", Run: r.RunFunc()}).Execute(in.scenarios[0][:41])
	if err != nil {
		t.Fatal(err)
	}
	if err := checkECULiveWindow(rowsOf(res.Outcomes)); err != nil {
		t.Fatal(err)
	}
	mustReject(t, checkECULiveWindow(rowsOf(flip(res.Outcomes, 2, fault.SDC))), "ECU live-window")
}

func TestTamperedDaemonDocumentRejected(t *testing.T) {
	scs, res := capsResult(t)
	doc := campaignd.BuildResultDoc("", len(scs), res, campaignd.Summary{Scenarios: len(scs), Result: res})
	want, err := digest(doc)
	if err != nil {
		t.Fatal(err)
	}
	doc.Outcomes = append([]campaignd.OutcomeDoc(nil), doc.Outcomes...)
	doc.Outcomes[1].Class = other(res.Outcomes[1].Class).String()
	mustReject(t, checkOracle("daemon result document", doc, want), "daemon document")
	mustReject(t, checkShape(scs, rowsOfDoc(doc), doc.Tally), "daemon document shape")
}

// adaptiveResult is a real adaptive result to tamper with, with the
// proposals its strategy made and its binary journal.
func adaptiveResult(t *testing.T) (*stressor.AdaptiveResult, []fault.Scenario, *journal.Journal) {
	t.Helper()
	r, err := newCapsRunner()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	in := &inputs{noveltySeeds: []int64{3}, budget: 60}
	c, h := adaptiveCampaign(r, in, 0, nil, 2)
	proposals := &proposalLog{ScenarioSource: c.Source}
	c.Source = proposals
	path := filepath.Join(t.TempDir(), "j.journal")
	jw, err := journal.CreateCodec(path, h, journal.Binary)
	if err != nil {
		t.Fatal(err)
	}
	c.Journal = jw
	res, err := c.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	j, err := journal.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	return res, proposals.proposed, j
}

func TestTamperedAdaptiveShapeRejected(t *testing.T) {
	res, proposed, _ := adaptiveResult(t)
	if err := checkShapeAdaptive(res, proposed); err != nil {
		t.Fatal(err)
	}
	flipped := *res
	flipped.Outcomes = flip(res.Outcomes, 4, other(res.Outcomes[4].Class))
	mustReject(t, checkShapeAdaptive(&flipped, proposed), "adaptive shape (class)")
	// Two outcomes delivered out of proposal order: the tally still
	// agrees, only the recorded proposals tell.
	swapped := *res
	swapped.Outcomes = append([]fault.Outcome(nil), res.Outcomes...)
	swapped.Outcomes[1], swapped.Outcomes[2] = swapped.Outcomes[2], swapped.Outcomes[1]
	if swapped.Outcomes[1].Scenario.ID == swapped.Outcomes[2].Scenario.ID {
		t.Fatal("proposals 1 and 2 share an id; pick another pair")
	}
	mustReject(t, checkShapeAdaptive(&swapped, proposed), "adaptive shape (order)")
}

func TestTamperedAdaptiveJournalRejected(t *testing.T) {
	res, _, j := adaptiveResult(t)
	if err := checkAdaptiveJournal(res, j); err != nil {
		t.Fatal(err)
	}
	i := j.Entries[len(j.Entries)/2].Index
	tampered := *res
	tampered.Outcomes = flip(res.Outcomes, i, other(res.Outcomes[i].Class))
	mustReject(t, checkAdaptiveJournal(&tampered, j), "adaptive journal")
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestPerLayerNamesMatchBenchmarkJSON keeps the per-layer list and
// BENCHMARK.json in step.
func TestPerLayerNamesMatchBenchmarkJSON(t *testing.T) {
	var b struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &b); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, m := range b.PerLayer {
		got = append(got, m.Name+" "+m.Unit)
	}
	for _, m := range perLayer {
		want = append(want, m.name+" "+m.unit)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("BENCHMARK.json per_layer\n%v\nwant\n%v", got, want)
	}
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
