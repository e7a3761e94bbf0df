package machine

import (
	"context"
	"testing"
	"time"

	"risc1/internal/cc"
	"risc1/internal/cisc"
)

// TestClockConversions checks that Run reports Time at each machine's
// clock: 400 ns a RISC I cycle, 200 ns a CX microcycle.
func TestClockConversions(t *testing.T) {
	const src = "int main() { putint(6 * 7); return 0; }"
	risc, _, err := cc.BuildRISC(src, cc.Options{Target: cc.RISCWindowed})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cc.Compile(src, cc.Options{Target: cc.CISC})
	if err != nil {
		t.Fatal(err)
	}
	cx, err := cisc.Assemble(res.Asm)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		target cc.Target
		img    Image
		period time.Duration
	}{
		{cc.RISCWindowed, Image{RISC: risc}, 400 * time.Nanosecond},
		{cc.CISC, Image{CX: cx}, 200 * time.Nanosecond},
	} {
		r, err := Run(context.Background(), tc.img, Config{Target: tc.target})
		if err != nil {
			t.Fatalf("%v: %v", tc.target, err)
		}
		if r.Cycles == 0 || r.Time != time.Duration(r.Cycles)*tc.period {
			t.Errorf("%v: %d cycles, Time = %v, want %v a cycle", tc.target, r.Cycles, r.Time, tc.period)
		}
	}
}
