package machine

import (
	"math"
	"testing"
	"time"

	"risc1/internal/timing"
)

func TestClockConversions(t *testing.T) {
	for _, tc := range []struct {
		r    Result
		want time.Duration
	}{
		{Result{Cycles: 1, cycleNS: timing.RiscCycleNS}, 400 * time.Nanosecond},
		{Result{Cycles: 5, cycleNS: timing.CXMicrocycleNS}, time.Microsecond},
	} {
		if got := tc.r.Time(); got != tc.want {
			t.Errorf("%d cycles of %d ns: Time() = %v, want %v", tc.r.Cycles, tc.r.cycleNS, got, tc.want)
		}
		if got := tc.r.Seconds(); math.Abs(got-tc.want.Seconds()) > 1e-15 {
			t.Errorf("%d cycles of %d ns: Seconds() = %g, want %g", tc.r.Cycles, tc.r.cycleNS, got, tc.want.Seconds())
		}
	}
}
