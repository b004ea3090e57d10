package stats

import (
	"strings"
	"testing"
)

func TestHealthCountersString(t *testing.T) {
	c := HealthCounters{HeartbeatsSent: 12, Suspicions: 3, DaemonReassigns: 2, DegradedWrites: 7}
	s := c.String()
	for _, want := range []string{"heartbeats=12", "suspicions=3", "reassigns=2", "rejected-writes=7"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}
