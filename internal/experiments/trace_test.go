package experiments

import (
	"testing"

	"mpichmad/internal/cluster"
	"mpichmad/internal/trace"
)

// TestTracingLeavesOutputIdentical pins the tracer's observer contract:
// attaching the process-wide default tracer (the -trace flag path) must
// leave an experiment's rendered output byte-identical to the untraced
// text pinned in testdata/artifacts.golden. Tracing only records — it
// never perturbs virtual time, scheduling order, or any measured quantity.
func TestTracingLeavesOutputIdentical(t *testing.T) {
	tr := trace.New(nil)
	cluster.SetDefaultTracer(tr)
	defer cluster.SetDefaultTracer(nil)
	on, err := GatewayCollectives()
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}
	if len(tr.Events()) == 0 {
		t.Fatal("default tracer attached but recorded nothing")
	}
	if off := golden(t)["gateway"]; off != on.Text {
		t.Errorf("gateway output diverged with tracing on:\n%s", divergence("golden", off, "traced", on.Text))
	}
}
