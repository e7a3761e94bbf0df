package pipeline

import (
	"testing"

	"risc1/internal/asm"
	"risc1/internal/core"
	"risc1/internal/prog"
)

// suiteTiming pins the complete pipelined Result of every suite kernel under
// both control policies. TestDifferentialRetirement checks architectural
// equality and the attribution invariant, which a misfiled stall or a wrong
// forward count still satisfies; these numbers catch that. They move only
// when the timing model's rules change on purpose, or when the compiler
// emits different code for a kernel.
var suiteTiming = []struct {
	name string
	want Result
}{
	{"search", Result{Policy: PolicyDelayed, Instructions: 460424, Cycles: 577931, LoadUseStallCycles: 51600, WindowStallCycles: 0, FlushBubbleCycles: 0, MemPortStallCycles: 65903, ForwardsEXMEM: 144909, ForwardsMEMWB: 146801, DelaySlots: 69103, DelaySlotsFilled: 15001, Transfers: 69104, TakenTransfers: 39303}},
	{"search", Result{Policy: PolicySquash, Instructions: 460424, Cycles: 617234, LoadUseStallCycles: 51600, WindowStallCycles: 0, FlushBubbleCycles: 39303, MemPortStallCycles: 65903, ForwardsEXMEM: 144809, ForwardsMEMWB: 132601, DelaySlots: 69103, DelaySlotsFilled: 15001, Transfers: 69104, TakenTransfers: 39303}},
	{"bittest", Result{Policy: PolicyDelayed, Instructions: 352736, Cycles: 429856, LoadUseStallCycles: 20000, WindowStallCycles: 0, FlushBubbleCycles: 0, MemPortStallCycles: 57116, ForwardsEXMEM: 143629, ForwardsMEMWB: 27318, DelaySlots: 38249, DelaySlotsFilled: 14085, Transfers: 38250, TakenTransfers: 28109}},
	{"bittest", Result{Policy: PolicySquash, Instructions: 352736, Cycles: 455993, LoadUseStallCycles: 20000, WindowStallCycles: 0, FlushBubbleCycles: 28109, MemPortStallCycles: 55144, ForwardsEXMEM: 141517, ForwardsMEMWB: 29430, DelaySlots: 38249, DelaySlotsFilled: 14085, Transfers: 38250, TakenTransfers: 28109}},
	{"linklist", Result{Policy: PolicyDelayed, Instructions: 601948, Cycles: 720740, LoadUseStallCycles: 46984, WindowStallCycles: 0, FlushBubbleCycles: 0, MemPortStallCycles: 71804, ForwardsEXMEM: 185612, ForwardsMEMWB: 143356, DelaySlots: 85375, DelaySlotsFilled: 27635, Transfers: 85376, TakenTransfers: 32362}},
	{"linklist", Result{Policy: PolicySquash, Instructions: 601948, Cycles: 753102, LoadUseStallCycles: 46984, WindowStallCycles: 0, FlushBubbleCycles: 32362, MemPortStallCycles: 71804, ForwardsEXMEM: 181028, ForwardsMEMWB: 147940, DelaySlots: 85375, DelaySlotsFilled: 27635, Transfers: 85376, TakenTransfers: 32362}},
	{"bitmat", Result{Policy: PolicyDelayed, Instructions: 460724, Cycles: 525894, LoadUseStallCycles: 21268, WindowStallCycles: 0, FlushBubbleCycles: 0, MemPortStallCycles: 43898, ForwardsEXMEM: 184959, ForwardsMEMWB: 108974, DelaySlots: 66184, DelaySlotsFilled: 22485, Transfers: 66185, TakenTransfers: 33490}},
	{"bitmat", Result{Policy: PolicySquash, Instructions: 460724, Cycles: 559352, LoadUseStallCycles: 21268, WindowStallCycles: 0, FlushBubbleCycles: 33490, MemPortStallCycles: 43866, ForwardsEXMEM: 162507, ForwardsMEMWB: 131426, DelaySlots: 66184, DelaySlotsFilled: 22485, Transfers: 66185, TakenTransfers: 33490}},
	{"acker", Result{Policy: PolicyDelayed, Instructions: 185654, Cycles: 578271, LoadUseStallCycles: 0, WindowStallCycles: 372240, FlushBubbleCycles: 0, MemPortStallCycles: 20373, ForwardsEXMEM: 25950, ForwardsMEMWB: 15400, DelaySlots: 46443, DelaySlotsFilled: 10308, Transfers: 46444, TakenTransfers: 41229}},
	{"acker", Result{Policy: PolicySquash, Instructions: 185654, Cycles: 619500, LoadUseStallCycles: 0, WindowStallCycles: 372240, FlushBubbleCycles: 41229, MemPortStallCycles: 20373, ForwardsEXMEM: 25950, ForwardsMEMWB: 15400, DelaySlots: 46443, DelaySlotsFilled: 10308, Transfers: 46444, TakenTransfers: 41229}},
	{"qsort", Result{Policy: PolicyDelayed, Instructions: 90768, Cycles: 109677, LoadUseStallCycles: 5803, WindowStallCycles: 2880, FlushBubbleCycles: 0, MemPortStallCycles: 10222, ForwardsEXMEM: 26144, ForwardsMEMWB: 20405, DelaySlots: 14529, DelaySlotsFilled: 3102, Transfers: 14530, TakenTransfers: 9293}},
	{"qsort", Result{Policy: PolicySquash, Instructions: 90768, Cycles: 118670, LoadUseStallCycles: 5803, WindowStallCycles: 2880, FlushBubbleCycles: 9293, MemPortStallCycles: 9922, ForwardsEXMEM: 24910, ForwardsMEMWB: 20072, DelaySlots: 14529, DelaySlotsFilled: 3102, Transfers: 14530, TakenTransfers: 9293}},
	{"puzzle", Result{Policy: PolicyDelayed, Instructions: 1139153, Cycles: 1256036, LoadUseStallCycles: 57900, WindowStallCycles: 0, FlushBubbleCycles: 0, MemPortStallCycles: 58979, ForwardsEXMEM: 410220, ForwardsMEMWB: 192415, DelaySlots: 235070, DelaySlotsFilled: 56852, Transfers: 235071, TakenTransfers: 133408}},
	{"puzzle", Result{Policy: PolicySquash, Instructions: 1139153, Cycles: 1389444, LoadUseStallCycles: 57900, WindowStallCycles: 0, FlushBubbleCycles: 133408, MemPortStallCycles: 58979, ForwardsEXMEM: 373569, ForwardsMEMWB: 229066, DelaySlots: 235070, DelaySlotsFilled: 56852, Transfers: 235071, TakenTransfers: 133408}},
	{"hanoi", Result{Policy: PolicyDelayed, Instructions: 524285, Cycles: 614321, LoadUseStallCycles: 16383, WindowStallCycles: 40880, FlushBubbleCycles: 0, MemPortStallCycles: 32769, ForwardsEXMEM: 98305, ForwardsMEMWB: 32767, DelaySlots: 114687, DelaySlotsFilled: 1, Transfers: 114688, TakenTransfers: 98303}},
	{"hanoi", Result{Policy: PolicySquash, Instructions: 524285, Cycles: 712624, LoadUseStallCycles: 16383, WindowStallCycles: 40880, FlushBubbleCycles: 98303, MemPortStallCycles: 32769, ForwardsEXMEM: 98305, ForwardsMEMWB: 32767, DelaySlots: 114687, DelaySlotsFilled: 1, Transfers: 114688, TakenTransfers: 98303}},
	{"sieve", Result{Policy: PolicyDelayed, Instructions: 4809458, Cycles: 5205183, LoadUseStallCycles: 81910, WindowStallCycles: 0, FlushBubbleCycles: 0, MemPortStallCycles: 313811, ForwardsEXMEM: 1953016, ForwardsMEMWB: 714691, DelaySlots: 728563, DelaySlotsFilled: 313821, Transfers: 728564, TakenTransfers: 395753}},
	{"sieve", Result{Policy: PolicySquash, Instructions: 4809458, Cycles: 5600936, LoadUseStallCycles: 81910, WindowStallCycles: 0, FlushBubbleCycles: 395753, MemPortStallCycles: 313811, ForwardsEXMEM: 1953006, ForwardsMEMWB: 714701, DelaySlots: 728563, DelaySlotsFilled: 313821, Transfers: 728564, TakenTransfers: 395753}},
	{"fib", Result{Policy: PolicyDelayed, Instructions: 129603, Cycles: 172228, LoadUseStallCycles: 4180, WindowStallCycles: 30080, FlushBubbleCycles: 0, MemPortStallCycles: 8361, ForwardsEXMEM: 20904, ForwardsMEMWB: 4180, DelaySlots: 33446, DelaySlotsFilled: 4181, Transfers: 33447, TakenTransfers: 29265}},
	{"fib", Result{Policy: PolicySquash, Instructions: 129603, Cycles: 201493, LoadUseStallCycles: 4180, WindowStallCycles: 30080, FlushBubbleCycles: 29265, MemPortStallCycles: 8361, ForwardsEXMEM: 20904, ForwardsMEMWB: 4180, DelaySlots: 33446, DelaySlotsFilled: 4181, Transfers: 33447, TakenTransfers: 29265}},
	{"queens", Result{Policy: PolicyDelayed, Instructions: 396515, Cycles: 462030, LoadUseStallCycles: 24740, WindowStallCycles: 3600, FlushBubbleCycles: 0, MemPortStallCycles: 37171, ForwardsEXMEM: 138139, ForwardsMEMWB: 98006, DelaySlots: 64318, DelaySlotsFilled: 15813, Transfers: 64319, TakenTransfers: 37522}},
	{"queens", Result{Policy: PolicySquash, Instructions: 396515, Cycles: 499552, LoadUseStallCycles: 24740, WindowStallCycles: 3600, FlushBubbleCycles: 37522, MemPortStallCycles: 37171, ForwardsEXMEM: 122419, ForwardsMEMWB: 113726, DelaySlots: 64318, DelaySlotsFilled: 15813, Transfers: 64319, TakenTransfers: 37522}},
	{"bubble", Result{Policy: PolicyDelayed, Instructions: 657409, Cycles: 773033, LoadUseStallCycles: 31642, WindowStallCycles: 0, FlushBubbleCycles: 0, MemPortStallCycles: 83978, ForwardsEXMEM: 239791, ForwardsMEMWB: 163947, DelaySlots: 63451, DelaySlotsFilled: 20950, Transfers: 63452, TakenTransfers: 31960}},
	{"bubble", Result{Policy: PolicySquash, Instructions: 657409, Cycles: 804793, LoadUseStallCycles: 31642, WindowStallCycles: 0, FlushBubbleCycles: 31960, MemPortStallCycles: 83778, ForwardsEXMEM: 238942, ForwardsMEMWB: 164796, DelaySlots: 63451, DelaySlotsFilled: 20950, Transfers: 63452, TakenTransfers: 31960}},
	{"matmul", Result{Policy: PolicyDelayed, Instructions: 778574, Cycles: 808532, LoadUseStallCycles: 1792, WindowStallCycles: 0, FlushBubbleCycles: 0, MemPortStallCycles: 28162, ForwardsEXMEM: 276767, ForwardsMEMWB: 28436, DelaySlots: 169606, DelaySlotsFilled: 41345, Transfers: 169607, TakenTransfers: 102931}},
	{"matmul", Result{Policy: PolicySquash, Instructions: 778574, Cycles: 906855, LoadUseStallCycles: 1792, WindowStallCycles: 0, FlushBubbleCycles: 102931, MemPortStallCycles: 23554, ForwardsEXMEM: 235935, ForwardsMEMWB: 69268, DelaySlots: 169606, DelaySlotsFilled: 41345, Transfers: 169607, TakenTransfers: 102931}},
}

func TestSuiteTimingPinned(t *testing.T) {
	cfg := core.Config{SaveStackBytes: 64 << 10}
	imgs := map[string]*asm.Image{}
	for _, b := range prog.All() {
		imgs[b.Name] = compileBench(t, b)
	}
	if len(suiteTiming) != 2*len(imgs) {
		t.Fatalf("%d pins for %d kernels x 2 policies", len(suiteTiming), len(imgs))
	}
	for _, pin := range suiteTiming {
		img, ok := imgs[pin.name]
		if !ok {
			t.Fatalf("pinned kernel %q is not in the suite", pin.name)
		}
		m := New(cfg, pin.want.Policy)
		if err := m.Load(img); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatalf("%s/%v: %v", pin.name, pin.want.Policy, err)
		}
		if got := m.Result(); got != pin.want {
			t.Errorf("%s/%v timing moved:\n got  %+v\n want %+v", pin.name, pin.want.Policy, got, pin.want)
		}
	}
}
