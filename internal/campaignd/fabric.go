package campaignd

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"log/slog"
	"sync"

	"repro/internal/caps"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/stressor"
)

// This file bridges campaignd's spec language to the distributed
// campaign fabric: the capsim-coord and capsim-worker CLIs accept the
// exact spec JSON that POST /runs accepts, so one campaign description
// drives the one-shot CLI, the daemon and the distributed fabric — and
// all three produce the identical merged result.

// ValidateFabricSpec re-checks a parsed spec for distributed
// execution. The fabric owns the partitioning and the merged result,
// so the single-process knobs that conflict with it are rejected here
// instead of silently misbehaving on a worker.
func ValidateFabricSpec(s *Spec) error {
	if s.Shard != "" {
		return fmt.Errorf("campaignd: spec shard %q conflicts with fabric sharding (use capsim-coord -shards)", s.Shard)
	}
	if s.Trace {
		return fmt.Errorf("campaignd: trace is not supported for distributed runs")
	}
	return nil
}

// MaterializeSpec parses and validates raw spec JSON for fabric use
// and materializes its scenario universe. The returned runner is the
// caller's to Close; the coordinator only needs it long enough to
// enumerate the universe.
func MaterializeSpec(raw []byte) (*Spec, *caps.Runner, []fault.Scenario, error) {
	spec, err := ParseSpec(raw)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := ValidateFabricSpec(spec); err != nil {
		return nil, nil, nil, err
	}
	runner, err := spec.BuildRunner()
	if err != nil {
		return nil, nil, nil, err
	}
	scenarios, err := spec.Scenarios(runner)
	if err != nil {
		runner.Close()
		return nil, nil, nil, err
	}
	return spec, runner, scenarios, nil
}

// FabricText renders the merged result exactly as capsim prints its
// campaign summary — the byte-identical block the goldenfile harness
// pins across capsim, capsimd and the fabric.
func FabricText(spec *Spec, scenarios int) func(*stressor.Result) string {
	return func(res *stressor.Result) string {
		return Summary{
			World: spec.Universe.World, Protected: !spec.Universe.Unprotected,
			Scenarios: scenarios, Workers: spec.Workers,
			Inline: spec.Inline(), Result: res,
		}.Text()
	}
}

// FabricResolver materializes lease specs for a fabric worker. Warm
// runners are cached by RunnerKey for the life of the worker — the
// same amortization the daemon's runner cache provides, so successive
// leases (and successive campaigns against one long-lived worker) skip
// prototype elaboration and the golden run. The most recent resolution
// is cached too, keyed by the SHA-256 of the raw spec bytes: a
// campaign's leases all carry the same spec, so only its first lease
// pays for parsing, validation and scenario enumeration, and a worker
// that moves on to another spec holds one resolution, not one per spec
// it has seen. The key keeps no copy of the spec, which for a large
// inline universe is a quarter of the resolution's footprint. The
// Resolved is shared between those leases; the worker copies the
// campaign template and the engine only reads the scenario slice.
func FabricResolver(log *slog.Logger) fabric.Resolver {
	var mu sync.Mutex
	runners := map[string]*caps.Runner{}
	var lastSpec [sha256.Size]byte
	var last *fabric.Resolved
	return func(raw json.RawMessage) (*fabric.Resolved, error) {
		specKey := sha256.Sum256(raw)
		mu.Lock()
		if last != nil && lastSpec == specKey {
			res := last
			mu.Unlock()
			return res, nil
		}
		mu.Unlock()
		spec, err := ParseSpec(raw)
		if err != nil {
			return nil, err
		}
		if err := ValidateFabricSpec(spec); err != nil {
			return nil, err
		}
		key := spec.RunnerKey()
		mu.Lock()
		runner := runners[key]
		mu.Unlock()
		if runner == nil {
			if runner, err = spec.BuildRunner(); err != nil {
				return nil, err
			}
			mu.Lock()
			if prev := runners[key]; prev != nil {
				// Lost a build race; keep the first.
				runner.Close()
				runner = prev
			} else {
				runners[key] = runner
			}
			mu.Unlock()
			if log != nil {
				log.Info("runner built", "key", key)
			}
		}
		scenarios, err := spec.Scenarios(runner)
		if err != nil {
			return nil, err
		}
		c := &stressor.Campaign{
			Run:             runner.RunFunc(),
			Workers:         spec.Workers,
			ScenarioTimeout: spec.Timeout(),
		}
		if spec.Checkpoints {
			c.Checkpoints = true
			c.Checkpointer = runner
			c.CheckpointTree = spec.CheckpointTree
			c.EarlyExit = spec.EarlyExit
			c.HashStride = spec.Stride()
		}
		res := &fabric.Resolved{Scenarios: scenarios, Campaign: c}
		mu.Lock()
		lastSpec, last = specKey, res
		mu.Unlock()
		return res, nil
	}
}
