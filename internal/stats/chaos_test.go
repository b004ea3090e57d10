package stats

import (
	"strings"
	"testing"
)

func TestChaosCountersString(t *testing.T) {
	c := ChaosCounters{MsgDropped: 3, Retries: 7, Crashes: 1, BackoffTicks: 42}
	s := c.String()
	for _, frag := range []string{"dropped=3", "retries=7", "crashes=1", "backoff=42", "msgs:", "ops:"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q, missing %q", s, frag)
		}
	}
}
