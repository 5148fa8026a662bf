package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/campaignd"
	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/stressor"
)

// row is one outcome as the checks see it, whichever surface (engine
// Result, daemon result document) it came from.
type row struct {
	id, class, detail string
	faults            int
}

func rowsOf(outs []fault.Outcome) []row {
	rs := make([]row, len(outs))
	for i, o := range outs {
		rs[i] = row{o.Scenario.ID, o.Class.String(), o.Detail, len(o.Scenario.Faults)}
	}
	return rs
}

// rowsOfDoc reads a daemon result document; its universes are single
// faults.
func rowsOfDoc(doc *campaignd.ResultDoc) []row {
	rs := make([]row, len(doc.Outcomes))
	for i, o := range doc.Outcomes {
		rs[i] = row{o.ID, o.Class, o.Detail, 1}
	}
	return rs
}

func tallyOf(t fault.Tally) map[string]int {
	m := map[string]int{}
	for c, n := range t {
		m[c.String()] = n
	}
	return m
}

// distinctOutcomes counts distinct (class, detail) pairs.
func distinctOutcomes(rs []row) int {
	seen := map[[2]string]bool{}
	for _, r := range rs {
		seen[[2]string{r.class, r.detail}] = true
	}
	return len(seen)
}

// checkShape: one outcome per scenario, in scenario order, and a tally
// that sums to the scenario count and agrees with the outcomes.
func checkShape(scs []fault.Scenario, rs []row, tally map[string]int) error {
	if len(rs) != len(scs) {
		return fmt.Errorf("shape: %d outcomes for %d scenarios", len(rs), len(scs))
	}
	recount := map[string]int{}
	for i, r := range rs {
		if r.id != scs[i].ID {
			return fmt.Errorf("shape: outcome %d is scenario %q, want %q", i, r.id, scs[i].ID)
		}
		recount[r.class]++
	}
	sum := 0
	for class, n := range tally {
		sum += n
		if recount[class] != n {
			return fmt.Errorf("shape: tally has %d %s, outcomes have %d", n, class, recount[class])
		}
	}
	if sum != len(scs) {
		return fmt.Errorf("shape: tally sums to %d, want %d", sum, len(scs))
	}
	return nil
}

// checkNoCampaignError: an outcome whose detail reports a campaign
// error is an infrastructure failure, not a classification.
func checkNoCampaignError(rs []row) error {
	for _, r := range rs {
		if strings.Contains(r.detail, "campaign error") {
			return fmt.Errorf("campaign error: %s: %s", r.id, r.detail)
		}
	}
	return nil
}

// checkCAPSSingleFaults: no single fault on the protected CAPS in
// normal driving is safety-critical — the paper's goal that no single
// component failure fires the airbag.
func checkCAPSSingleFaults(rs []row) error {
	for _, r := range rs {
		if r.faults == 1 && r.class == fault.SafetyCritical.String() {
			return fmt.Errorf("single fault %s is safety-critical: %s", r.id, r.detail)
		}
	}
	return nil
}

// checkECULiveWindow: an upset injected while the golden program still
// runs is caught by lockstep, ECC or the watchdog, or stays harmless;
// it never ends as sdc, a timing violation or safety-critical.
func checkECULiveWindow(rs []row) error {
	for _, r := range rs {
		switch r.class {
		case fault.SDC.String(), fault.TimingViolation.String(), fault.SafetyCritical.String():
			return fmt.Errorf("live-window upset %s ended %s: %s", r.id, r.class, r.detail)
		}
	}
	return nil
}

// digest is the SHA-256 of v's JSON encoding. Results are compared
// with the oracle's byte for byte through their digests, so neither
// side's encoding is held in memory.
func digest(v any) (string, error) {
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(v); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkOracle compares a result's encoding with the oracle's.
func checkOracle(what string, v any, want string) error {
	got, err := digest(v)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("%s differs from the oracle's (sha256 %s, want %s)", what, got, want)
	}
	return nil
}

// checkAdaptiveJournal: the journal reads back with one entry per
// simulated run, and each entry's class is its outcome's.
func checkAdaptiveJournal(res *stressor.AdaptiveResult, j *journal.Journal) error {
	if len(j.Entries) != res.Simulated {
		return fmt.Errorf("journal: %d entries for %d simulated runs", len(j.Entries), res.Simulated)
	}
	for _, e := range j.Entries {
		if e.Index < 0 || e.Index >= len(res.Outcomes) {
			return fmt.Errorf("journal: entry index %d outside %d outcomes", e.Index, len(res.Outcomes))
		}
		o := res.Outcomes[e.Index]
		if e.ID != o.Scenario.ID || e.Class != o.Class.String() {
			return fmt.Errorf("journal: entry %d is %s/%s, outcome is %s/%s", e.Index, e.ID, e.Class, o.Scenario.ID, o.Class)
		}
	}
	return nil
}

// firstErr returns the first non-nil error.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
