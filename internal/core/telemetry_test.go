package core

import (
	"context"
	"testing"

	"wormhole/internal/telemetry"
)

// TestTelemetryDoesNotPerturbTables is the observability contract at the
// experiment layer: attaching a telemetry aggregate must leave every
// experiment's rendered tables byte-identical to a telemetry-off run.
func TestTelemetryDoesNotPerturbTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			render := func(agg *telemetry.Aggregate) string {
				tables, err := Run(context.Background(), e.ID, Config{Seed: 11, Quick: true, Telemetry: agg})
				if err != nil {
					t.Fatal(err)
				}
				out := ""
				for _, tab := range tables {
					out += tab.String() + "\n"
				}
				return out
			}
			off := render(nil)
			agg := telemetry.NewAggregate()
			on := render(agg)
			if off != on {
				t.Errorf("tables differ with telemetry attached:\n--- off ---\n%s\n--- on ---\n%s", off, on)
			}
		})
	}
}

// TestTelemetryAggregateCollects spot-checks that an instrumented
// experiment actually feeds the aggregate: T1 runs greedy simulations, so
// steps and delivery counters must be non-zero and the per-job registries
// must fold into one deterministic snapshot.
func TestTelemetryAggregateCollects(t *testing.T) {
	agg := telemetry.NewAggregate()
	if _, err := Run(context.Background(), "A3", Config{Seed: 11, Quick: true, Telemetry: agg}); err != nil {
		t.Fatal(err)
	}
	if agg.Len() == 0 {
		t.Fatal("no child registries registered by A3")
	}
	s := agg.Snapshot()
	if s.Counter("steps") == 0 || s.Counter("delivers") == 0 {
		t.Errorf("aggregate snapshot missing core counters: steps=%d delivers=%d",
			s.Counter("steps"), s.Counter("delivers"))
	}
	// A3 runs six jobs (B ∈ {1,2,4} × {drop, block}) over the same
	// network: the per-edge accumulators must merge, not be discarded.
	if len(s.EdgeStalls) == 0 {
		t.Error("aggregate snapshot lost per-edge accumulators")
	}
}
