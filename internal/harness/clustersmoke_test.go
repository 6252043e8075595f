package harness

import (
	"context"
	"strings"
	"testing"
)

// TestRunClusterSmoke boots the real-TCP loopback cluster at a reduced
// size and checks the report's conformance and traffic fields.
func TestRunClusterSmoke(t *testing.T) {
	rep, err := RunClusterSmoke(context.Background(), ClusterSmokeConfig{N: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ranks != smokeWorkers {
		t.Errorf("Ranks = %d, want %d (one per worker)", rep.Ranks, smokeWorkers)
	}
	if rep.RelErr > smokeTol {
		t.Errorf("RelErr = %g, want <= %g", rep.RelErr, smokeTol)
	}
	if rep.CommBytes <= 0 || rep.CommMsgs <= 0 {
		t.Errorf("mesh traffic not recorded: %d bytes, %d msgs", rep.CommBytes, rep.CommMsgs)
	}
	if rep.ScatterBytes <= 0 || rep.GatherBytes <= 0 {
		t.Errorf("control-plane traffic not recorded: scatter %d, gather %d", rep.ScatterBytes, rep.GatherBytes)
	}
	if !strings.Contains(rep.Table, "rel L2 error") {
		t.Errorf("table missing error line:\n%s", rep.Table)
	}
}
