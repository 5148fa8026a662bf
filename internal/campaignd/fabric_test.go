package campaignd

import (
	"testing"

	"repro/internal/stressor"
)

// TestFabricResolverCachesLastSpec: the leases of one campaign resolve
// once, another spec re-resolves and evicts the first, and the shared
// scenario slice survives a campaign run unmodified — the engine only
// reads it, so handing it to every lease is safe.
func TestFabricResolverCachesLastSpec(t *testing.T) {
	resolve := FabricResolver(nil)
	specA := []byte(`{"campaign":"a","checkpoints":true,"checkpoint_tree":true,"early_exit":true,` +
		`"universe":{"kind":"inline","horizon":"2ms","scenarios":[` +
		`{"id":"late","faults":"stuck-at-1 @caps.accel0.harness from 300us"},` +
		`{"id":"early","faults":"open @caps.accel0.harness from 100us"},` +
		`{"id":"mid","faults":"omission @caps.can.bus from 200us"}]}}`)
	specB := []byte(tinySpec)

	a1, err := resolve(specA)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := resolve(append([]byte(nil), specA...))
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Error("second lease of the same spec re-resolved")
	}
	b, err := resolve(specB)
	if err != nil {
		t.Fatal(err)
	}
	if b == a1 || len(b.Scenarios) != 3 || b.Scenarios[0].ID != "a" {
		t.Errorf("different spec served the cached resolution: %+v", b.Scenarios)
	}
	a3, err := resolve(specA)
	if err != nil {
		t.Fatal(err)
	}
	if a3 == a1 {
		t.Error("cache kept more than the most recent spec")
	}

	before := stressor.UniverseHash(a3.Scenarios)
	c := *a3.Campaign
	if _, err := c.Execute(a3.Scenarios); err != nil {
		t.Fatal(err)
	}
	if after := stressor.UniverseHash(a3.Scenarios); after != before {
		t.Fatalf("campaign run changed the cached universe: %s -> %s", before, after)
	}
	if a3.Scenarios[0].ID != "late" {
		t.Fatalf("campaign run reordered the cached scenarios: first is %q", a3.Scenarios[0].ID)
	}
}
