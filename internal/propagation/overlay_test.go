package propagation

import (
	"math"
	"testing"

	"repro/internal/ids"
	"repro/internal/wgraph"
)

// Propagation must work identically over a frozen graph and over an
// overlay view representing the same edges — the property the §6.3
// incremental update strategies rely on.
func TestPropagateOverOverlay(t *testing.T) {
	base := paperGraph()
	o := wgraph.NewOverlay(base)

	cfg := Config{Threshold: StaticThreshold(0), MaxIterations: 100}
	fromGraph := oneShot(NewIncremental(base, cfg), []ids.UserID{nodeX})
	fromOverlay := oneShot(NewIncremental(o, cfg), []ids.UserID{nodeX})

	if len(fromGraph) != len(fromOverlay) {
		t.Fatalf("result sizes differ: %d vs %d", len(fromGraph), len(fromOverlay))
	}
	for u, p := range fromOverlay {
		if math.Abs(fromGraph[u]-p) > 1e-12 {
			t.Fatalf("user %d: %v vs %v", u, fromGraph[u], p)
		}
	}
}

// A weight update through the overlay must change the fixpoint exactly as
// rebuilding the graph would.
func TestPropagateSeesOverlayUpdates(t *testing.T) {
	base := paperGraph()
	o := wgraph.NewOverlay(base)
	o.SetEdge(nodeW, nodeX, 0.9) // strengthen w's trust in x

	cfg := Config{Threshold: StaticThreshold(0), MaxIterations: 100}
	got := oneShot(NewIncremental(o, cfg), []ids.UserID{nodeX})
	// p(w) = (0.9·1 + 0.4·0)/2 = 0.45 now.
	if math.Abs(got[nodeW]-0.45) > 1e-6 {
		t.Errorf("p(w) = %v, want 0.45 after overlay update", got[nodeW])
	}

	// Same result from the frozen overlay.
	frozen := o.Freeze()
	got2 := oneShot(NewIncremental(frozen, cfg), []ids.UserID{nodeX})
	if math.Abs(got2[nodeW]-got[nodeW]) > 1e-12 {
		t.Errorf("frozen overlay diverges: %v vs %v", got2[nodeW], got[nodeW])
	}
}

// An added edge through the overlay extends the propagation's reach.
func TestPropagateReachesThroughAddedEdge(t *testing.T) {
	base := paperGraph()
	o := wgraph.NewOverlay(base)
	// y now also trusts x: y gets a score, and w's mean over {x, y} grows.
	o.SetEdge(nodeY, nodeX, 0.8)

	cfg := Config{Threshold: StaticThreshold(0), MaxIterations: 100}
	got := oneShot(NewIncremental(o, cfg), []ids.UserID{nodeX})
	if math.Abs(got[nodeY]-0.8) > 1e-6 {
		t.Errorf("p(y) = %v, want 0.8", got[nodeY])
	}
	// p(w) = (0.5·1 + 0.4·0.8)/2 = 0.41.
	if math.Abs(got[nodeW]-0.41) > 1e-6 {
		t.Errorf("p(w) = %v, want 0.41", got[nodeW])
	}
	// v now reachable: p(v) = 0.1·0.8 / 1 = 0.08.
	if math.Abs(got[nodeV]-0.08) > 1e-6 {
		t.Errorf("p(v) = %v, want 0.08", got[nodeV])
	}
}
