package stressor

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

// tickModel counts up once per microsecond until stopAt, then idles;
// it counts the digests taken of it and can report a divergence latch.
type tickModel struct {
	value   uint64
	stopAt  sim.Time
	latched bool
	hashes  int
}

func (m *tickModel) HashState(h *sim.StateHash) {
	m.hashes++
	h.U64(m.value)
}

func (m *tickModel) NeverConverges() bool { return m.latched }

func (m *tickModel) elaborate(k *sim.Kernel) {
	ev := k.NewEvent("tick")
	k.Method("tick", func() {
		m.value++
		if k.Now()+sim.US(1) <= m.stopAt {
			ev.Notify(sim.US(1))
		}
	}, ev)
}

// TestRunToHorizonStopsComparing: a run that can no longer converge —
// frozen on an idle kernel, or latched per Divergent — stops taking
// digests but still runs to the horizon unconverged.
func TestRunToHorizonStopsComparing(t *testing.T) {
	stride, horizon := sim.US(4), sim.US(40)
	golden := &tickModel{stopAt: sim.US(20)}
	gk := sim.NewKernel()
	defer gk.Shutdown()
	golden.elaborate(gk)
	tr, err := RecordTrajectory(gk, golden, stride, horizon)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		latched bool
		hashes  int
	}{
		// Misses at 4 and 8 µs while ticking; by 12 µs the model has
		// stopped (its last tick is at 10 µs), so that third miss finds
		// the kernel idle and comparing ends.
		{"frozen", false, 3},
		{"latched", true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := &tickModel{value: 100, stopAt: sim.US(10), latched: tc.latched}
			k := sim.NewKernel()
			defer k.Shutdown()
			m.elaborate(k)
			var st Stressor
			st.Respawn(k, fault.NewRegistry(), fault.Scenario{ID: "none"}, horizon)
			converged, _, err := tr.RunToHorizon(k, m, &st)
			if err != nil {
				t.Fatal(err)
			}
			if converged {
				t.Fatal("diverged run reported converged")
			}
			if k.Now() != horizon {
				t.Errorf("stopped at %s, want horizon %s", k.Now(), horizon)
			}
			if m.hashes != tc.hashes {
				t.Errorf("%d digests, want %d", m.hashes, tc.hashes)
			}
		})
	}
}
