// Cycle-accurate five-stage pipeline model. Where Analyze estimates cycle
// counts from aggregate statistics, Machine measures them: it runs the
// single-cycle core (by default on its block engine), receives every run of retired
// instructions through the CPU's Retire hook, and replays each retirement
// through an IF/ID/EX/MEM/WB timing model with full operand forwarding, a
// load-use interlock, register-window trap drains, and one of two
// control-transfer policies. A block run from a scoreboard state already
// seen at its leader is priced from a memo of that exact computation (see
// memo.go). Architectural state is always exactly the core's — the
// pipeline layer only decides how many cycles the same execution takes.
//
// The timing model is event-driven rather than stage-by-stage: for an
// in-order single-issue pipeline the cycle an instruction enters EX
// determines every other stage (IF = EX-2, ID = EX-1, MEM = EX+1,
// WB = EX+2), so it suffices to track, per retired instruction, the EX
// cycle and the producers still in flight. The first instruction reaches
// EX at cycle 3; with no stalls each successor follows one cycle later and
// a program of N instructions drains after N+4 cycles.
//
// Hazards are resolved the way the classic five-stage datapath does:
//
//   - EX/MEM forward: an ALU result feeds the very next instruction's EX.
//   - MEM/WB forward: a result two ahead of its consumer, including a load
//     feeding the instruction after its shadow.
//   - Load-use interlock: a load's value does not exist until the end of
//     MEM, so a consumer in the next slot stalls one cycle and then takes
//     the MEM/WB forward.
//   - Store data is not needed until the store's own MEM stage, so a load
//     feeding the data register of the very next store forwards
//     MEM-to-MEM without stalling.
//   - Three or more instructions of distance read the register file
//     (write-first-half / read-second-half).
//   - Shared memory port: the machine has one port to memory, so a load
//     or store in MEM blocks instruction fetch that cycle. The delayed
//     fetch slides the follower's whole IF/ID/EX frame — this is the
//     structural hazard that makes loads and stores effectively
//     two-cycle instructions in the paper's timing tables.
//
// Producers and consumers are matched by physical register index, not
// architectural number: CALL and RET shift the window between an
// instruction's operand read and its successor's, and the same r26 names a
// different physical register on either side of a call. Condition codes are
// a scoreboarded pseudo-register with the same forwarding rules.
//
// Register-window overflow and underflow raise the spill/fill trap of the
// single-cycle model; the pipeline drains while the handler runs, for the
// cycles timing.TrapCycles prices the traps at.
package pipeline

import (
	"context"
	"fmt"

	"risc1/internal/asm"
	"risc1/internal/core"
	"risc1/internal/isa"
	"risc1/internal/stats"
)

// Policy selects how the pipeline resolves control transfers.
type Policy uint8

const (
	// PolicyDelayed is RISC I as built: transfers resolve early enough
	// that the delay slot exactly covers the branch shadow — a taken
	// transfer costs no bubble beyond the slot the architecture already
	// exposes.
	PolicyDelayed Policy = iota
	// PolicySquash models predict-not-taken hardware on the same ISA:
	// the transfer resolves in EX, so by the time a taken transfer is
	// known the fetch unit has gone one instruction past the delay slot
	// down the fall-through path. That wrong-path fetch is squashed — a
	// one-cycle bubble per taken transfer. Architectural results are
	// identical to PolicyDelayed; only the cycle count differs.
	PolicySquash
)

// String returns the wire spelling of p.
func (p Policy) String() string {
	switch p {
	case PolicyDelayed:
		return "delayed"
	case PolicySquash:
		return "squash"
	}
	return "invalid"
}

// ParsePolicy maps a wire spelling to a Policy. The empty string selects
// PolicyDelayed, the machine the paper built.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "delayed":
		return PolicyDelayed, nil
	case "squash", "predict-not-taken":
		return PolicySquash, nil
	}
	return PolicyDelayed, fmt.Errorf("pipeline: unknown policy %q (want delayed or squash)", s)
}

// Result is the timing outcome of one pipelined run.
type Result struct {
	Policy       Policy
	Instructions uint64
	// Cycles is the pipelined cycle count: Instructions + 4 fill/drain
	// cycles + every stall and bubble below.
	Cycles uint64

	// LoadUseStallCycles counts interlock cycles where EX waited for a
	// load (or a flag-setting load feeding a conditional jump).
	LoadUseStallCycles uint64
	// WindowStallCycles counts drain cycles spent in the register-window
	// spill/fill trap handler.
	WindowStallCycles uint64
	// FlushBubbleCycles counts wrong-path fetches squashed by taken
	// transfers; always zero under PolicyDelayed.
	FlushBubbleCycles uint64
	// MemPortStallCycles counts fetches delayed because a load or store
	// occupied the single shared memory port in its MEM stage. This is the
	// structural hazard that makes the paper's loads and stores two-cycle
	// instructions: the machine has one port, and a data access suspends
	// instruction fetch for a cycle.
	MemPortStallCycles uint64

	// ForwardsEXMEM and ForwardsMEMWB count operands delivered through
	// the two bypass paths rather than the register file.
	ForwardsEXMEM uint64
	ForwardsMEMWB uint64

	// DelaySlots counts retired delay-slot instructions;
	// DelaySlotsFilled is the subset doing useful work (not NOPs).
	DelaySlots       uint64
	DelaySlotsFilled uint64

	Transfers      uint64
	TakenTransfers uint64
}

// CPI is the effective cycles-per-instruction; 0 for an empty run.
func (r Result) CPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Instructions)
}

// Forwards is the total operand count delivered over bypass paths.
func (r Result) Forwards() uint64 { return r.ForwardsEXMEM + r.ForwardsMEMWB }

// FillRate is the fraction of retired delay slots holding useful work;
// 0 for a run that retired no slots.
func (r Result) FillRate() float64 {
	if r.DelaySlots == 0 {
		return 0
	}
	return float64(r.DelaySlotsFilled) / float64(r.DelaySlots)
}

// StallCycles is the total of every cycle lost to hazards.
func (r Result) StallCycles() uint64 {
	return r.LoadUseStallCycles + r.WindowStallCycles + r.FlushBubbleCycles +
		r.MemPortStallCycles
}

// writeRec scoreboards the in-flight producer of one physical register (or
// of the condition codes).
type writeRec struct {
	ex    uint64 // producer's EX cycle
	load  bool   // value exists at end of MEM, not end of EX
	valid bool
}

// tdesc is the timing shape of one static instruction, derived from its
// isa.Inst once and reused on every retirement of that instruction: which
// registers it reads in EX and in MEM, which it writes, and which hazard
// rules apply to it. Registers are stored as operands relative to the
// window bases, so one descriptor serves every window the instruction
// runs in.
type tdesc struct {
	src   [3]opnd // nonzero EX source operands (duplicates kept: each is a read)
	nsrc  uint8
	data  opnd  // store data, a MEM-stage operand; valid under tdStoreData
	dst   opnd  // valid under tdDest
	win   uint8 // index into Machine.win of the window the sources are read in
	flags uint16
}

// opnd names a visible register as an offset from one of a window's three
// bases: physical index = base[sel] + off.
type opnd struct{ sel, off uint8 }

// Operand selectors: the base each register group is indexed from.
const (
	selGlobal = iota // r1–r9: base 0
	selLow           // r10–r25, LOW and LOCAL: the window's own registers
	selHigh          // r26–r31, HIGH: shared with the caller's LOW
)

// tdesc flags.
const (
	tdReadsFlags  = 1 << iota // EX consumes the condition codes
	tdWritesFlags             // SCC or PUTPSW
	tdLoad
	tdStore
	tdStoreData // a store whose data register is not r0
	tdDest      // writes a register other than r0
	tdSlot      // a transfer owning a delay slot (every transfer but CALLINT)
	tdPush      // CALL/CALLR/CALLINT: pushes a window
	tdPop       // RET/RETINT: pops a window unless it halted the machine
	tdNop       // effect-free: an unfilled delay slot
)

// Window-base rows of Machine.win: the sources of a CALL are read one
// window before the push, those of a RET one window after the pop has
// undone it, everything else in the current window.
const (
	winPrev = iota
	winCur
	winNext
)

// descEntry is the per-code-word state: the descriptor of the instruction
// last seen at the word.
type descEntry struct {
	inst isa.Inst
	d    tdesc
	// Words [w, w+vlen) were last checked against a retired run in epoch
	// vepoch; see Machine.verify.
	vepoch uint32
	vlen   uint8
}

// tailRec is one of the last three retirements, as the scoreboard still
// sees it: a producer three or more EX cycles back reads the register
// file, and the port queue forgets MEM cycles older than ex-2.
type tailRec struct {
	ex  uint64
	fl  uint8 // tl* bits
	dst int   // physical destination register; valid under tlDest
}

// tailRec flags.
const (
	tlValid = 1 << iota
	tlLoad
	tlMem // load or store: holds the memory port in MEM
	tlFlags
	tlDest
)

// Machine is a cycle-accurate pipelined RISC I. It embeds a single-cycle
// core as its architectural oracle: every instruction executes exactly as
// core.Step would, and the timing model prices the retirement stream the
// core reports through its Retire hook.
type Machine struct {
	cpu    *core.CPU
	policy Policy
	flat   bool
	st     *stats.Stats

	res Result

	ex      uint64 // EX cycle of the last retired instruction
	pending uint64 // stall cycles already charged to the next issue

	regW  []writeRec // by physical register index
	flagW writeRec   // condition-code scoreboard

	slotPending bool // last retirement was a transfer owning a delay slot
	slotTaken   bool

	// busy[:nbusy] holds the future MEM cycles of in-flight loads and
	// stores — the cycles the shared memory port is closed to instruction
	// fetch. Strictly increasing (MEM = EX+1 and EX is monotone); after
	// pruning every entry lies in [ex-2, ex+1] of the retiring instruction,
	// so the queue never holds more than four.
	busy  [4]uint64
	nbusy int

	// tail holds the last three retirements, newest first.
	tail [3]tailRec

	// desc holds one entry per word of the core's predecoded code range,
	// indexed by (pc-org)>>2. A PC outside it is described on the fly.
	desc []descEntry
	org  uint32

	// win holds the {global, LOW, HIGH} bases of windows cwp-1, cwp and
	// cwp+1. The pricer moves cwp itself at every call and return.
	win [3][3]int
	cwp int

	// Window trap counters at the end of the last run.
	lastOvf, lastUnf, lastBatch uint64

	memoState
}

// New builds a pipelined machine over a fresh core with the given
// configuration. The core reports each run of retired instructions to the
// timing model, which prices whole blocks from its memo (a run of one
// instruction at a time under the step engine).
func New(cfg core.Config, policy Policy) *Machine {
	m := &Machine{policy: policy, flat: cfg.Flat}
	m.cpu = core.New(cfg)
	m.cpu.Retire = m.retire
	m.st = m.cpu.Stats()
	m.memoOK = m.cpu.Regs.TotalPhys() <= 1<<16
	m.resetTiming()
	return m
}

// CPU exposes the architectural oracle: registers, memory, console, stats.
func (m *Machine) CPU() *core.CPU { return m.cpu }

// Policy returns the machine's control-transfer policy.
func (m *Machine) Policy() Policy { return m.policy }

// Load places an image in memory, resets the processor and the timing model.
func (m *Machine) Load(img *asm.Image) error {
	if err := m.cpu.Load(img); err != nil {
		return err
	}
	m.st = m.cpu.Stats() // Load replaced the stats object
	org, n := m.cpu.CodeSpan()
	m.org = org
	if cap(m.desc) < n {
		m.desc = make([]descEntry, n)
	} else {
		m.desc = m.desc[:n]
		clear(m.desc)
	}
	m.resetTiming()
	return nil
}

func (m *Machine) resetTiming() {
	m.res = Result{Policy: m.policy}
	m.ex = 2 // the first instruction enters EX at cycle 3
	m.pending = 0
	n := m.cpu.Regs.TotalPhys()
	if cap(m.regW) < n {
		m.regW = make([]writeRec, n)
	} else {
		m.regW = m.regW[:n]
		clear(m.regW)
	}
	m.flagW = writeRec{}
	m.nbusy = 0
	m.tail = [3]tailRec{}
	m.slotPending, m.slotTaken = false, false
	m.lastOvf, m.lastUnf, m.lastBatch = 0, 0, 0
	m.rebase(m.cpu.Regs.CWP())
	m.resetMemo()
}

// rebase points the window-base rows at windows cwp-1, cwp and cwp+1.
func (m *Machine) rebase(cwp int) {
	m.cwp = cwp
	for k := range m.win {
		w := cwp - winCur + k
		m.win[k] = [3]int{selGlobal: 0,
			selLow:  m.cpu.Regs.PhysIndex(w, isa.FirstLow),
			selHigh: m.cpu.Regs.PhysIndex(w, isa.FirstHigh)}
	}
}

// Run executes until halt, fault or cycle budget.
func (m *Machine) Run() error { return m.cpu.Run() }

// RunContext is Run with cancellation.
func (m *Machine) RunContext(ctx context.Context) error { return m.cpu.RunContext(ctx) }

// Step retires a single instruction through both the oracle and the
// timing model.
func (m *Machine) Step() error { return m.cpu.Step() }

// Result returns the timing outcome so far. It is valid after a partial
// run (fault, cycle limit, cancellation): it describes the instructions
// that actually retired.
func (m *Machine) Result() Result {
	r := m.res
	m.addHits(&r)
	if r.Instructions > 0 {
		// The last instruction still has MEM and WB to drain.
		r.Cycles = m.ex + 2
	}
	return r
}

// describe derives the timing descriptor of inst.
func (m *Machine) describe(inst isa.Inst) tdesc {
	d := tdesc{win: winCur}
	var buf [4]uint8
	srcs := inst.SourceRegs(buf[:0])
	switch inst.Op.Cat() {
	case isa.CatLoad:
		d.flags |= tdLoad
	case isa.CatStore:
		// Store data is a MEM-stage operand, kept apart from the EX scan.
		d.flags |= tdStore
		if r := srcs[len(srcs)-1]; r != 0 {
			d.flags |= tdStoreData
			d.data = operand(r)
		}
		srcs = srcs[:len(srcs)-1]
	}
	for _, r := range srcs {
		if r != 0 { // r0 is hardwired zero
			d.src[d.nsrc] = operand(r)
			d.nsrc++
		}
	}
	if r, ok := inst.DestReg(); ok && r != 0 {
		d.flags |= tdDest
		d.dst = operand(r)
	}
	// Conditional jumps consume the condition codes in EX; GETPSW reads
	// them too. CondALW/CondNEV never look at the flags.
	if inst.Op.IsConditional() {
		if c := inst.Cond(); c != isa.CondALW && c != isa.CondNEV {
			d.flags |= tdReadsFlags
		}
	}
	if inst.Op == isa.OpGETPSW {
		d.flags |= tdReadsFlags
	}
	if inst.SCC || inst.Op == isa.OpPUTPSW {
		d.flags |= tdWritesFlags
	}
	if inst.Op.Transfers() && inst.Op != isa.OpCALLINT {
		d.flags |= tdSlot
	}
	if inst.IsEffectFree() {
		d.flags |= tdNop
	}
	// Calls and returns shift the window and are the only instructions
	// that can take a window trap. The oracle retires them after the
	// shift, so their operands were read in the window on the other side
	// of it.
	switch {
	case inst.IsCall():
		d.flags |= tdPush
		if !m.flat {
			d.win = winPrev
		}
	case inst.IsReturn():
		d.flags |= tdPop
		if !m.flat {
			d.win = winNext
		}
	}
	return d
}

// operand places visible register r (1..31) in its register group.
func operand(r uint8) opnd {
	switch {
	case r < isa.NumGlobalRegs:
		return opnd{selGlobal, r}
	case r < isa.FirstHigh:
		return opnd{selLow, r - isa.FirstLow}
	default:
		return opnd{selHigh, r - isa.FirstHigh}
	}
}

// price runs one retirement through the scoreboard: the exact timing model
// every memo entry is a cached output of. taken is the outcome of the
// run's transfer; a RET that was not taken halted the machine and never
// popped its window. traps is the drain of the run's window traps, charged
// after the window-shifting instruction that took them.
func (m *Machine) price(d *tdesc, taken bool, traps uint64) {
	m.res.Instructions++

	// Delay-slot bookkeeping: this retirement fills the slot of the
	// previous transfer.
	if m.slotPending {
		m.res.DelaySlots++
		if d.flags&tdNop == 0 {
			m.res.DelaySlotsFilled++
		}
	}

	// Issue: one cycle after the previous EX, plus any pending squash
	// bubble or window-trap drain charged by the previous retirement.
	issue := m.ex + 1 + m.pending
	m.pending = 0

	halted := d.flags&tdPop != 0 && !taken
	if !m.flat {
		switch {
		case d.flags&tdPush != 0:
			m.rebase(m.cwp + 1)
		case d.flags&tdPop != 0 && !halted:
			m.rebase(m.cwp - 1)
		}
	}
	srcBase := &m.win[d.win]
	if halted {
		srcBase = &m.win[winCur] // a RET that halted the machine never popped
	}

	// Scan EX operands for hazards, keeping each in-flight producer for
	// the forward classification below.
	ex := issue
	var prod [4]writeRec
	np := 0
	for _, o := range d.src[:d.nsrc] {
		if w := m.regW[srcBase[o.sel]+int(o.off)]; w.valid {
			prod[np] = w
			np++
			if need := ready(w) + 1; ex < need {
				ex = need
			}
		}
	}
	if d.flags&tdReadsFlags != 0 && m.flagW.valid {
		prod[np] = m.flagW
		np++
		if need := ready(m.flagW) + 1; ex < need {
			ex = need
		}
	}
	m.res.LoadUseStallCycles += ex - issue

	// Shared memory port: this instruction's fetch (IF = EX-2) cannot use
	// the port in a cycle where an earlier access's MEM stage holds it, so
	// the fetch — and with it the whole rigid IF/ID/EX frame — slides
	// until the port is free.
	f := ex - 2
	i := 0
	for i < m.nbusy && m.busy[i] < f {
		i++
	}
	if i > 0 {
		m.nbusy = copy(m.busy[:], m.busy[i:m.nbusy])
	}
	for _, b := range m.busy[:m.nbusy] {
		if b == f {
			f++
		} else if b > f {
			break
		}
	}
	if min := f + 2; ex < min {
		m.res.MemPortStallCycles += min - ex
		ex = min
	}

	// With the EX cycle fixed, classify where each operand came from.
	for _, w := range prod[:np] {
		m.countForward(ex-w.ex, w.load)
	}
	// Store data is needed at the store's MEM stage, one cycle later, so
	// even a load feeding the very next store forwards MEM-to-MEM
	// without a stall.
	if d.flags&tdStoreData != 0 {
		if w := m.regW[srcBase[d.data.sel]+int(d.data.off)]; w.valid {
			switch dist := ex - w.ex; {
			case dist == 1 && !w.load:
				m.res.ForwardsEXMEM++
			case dist <= 2:
				m.res.ForwardsMEMWB++
			}
		}
	}
	m.ex = ex

	// A load or store owns the memory port for its MEM cycle.
	t := tailRec{ex: ex, fl: tlValid}
	if d.flags&(tdLoad|tdStore) != 0 {
		m.busy[m.nbusy] = ex + 1
		m.nbusy++
		t.fl |= tlMem
	}

	// Scoreboard this instruction's writes for its successors; the link a
	// call writes lands in the new, current window.
	isLoad := d.flags&tdLoad != 0
	if isLoad {
		t.fl |= tlLoad
	}
	if d.flags&tdDest != 0 {
		t.dst = m.win[winCur][d.dst.sel] + int(d.dst.off)
		t.fl |= tlDest
		m.regW[t.dst] = writeRec{ex: ex, load: isLoad, valid: true}
	}
	if d.flags&tdWritesFlags != 0 {
		t.fl |= tlFlags
		m.flagW = writeRec{ex: ex, load: isLoad, valid: true}
	}
	m.tail[2], m.tail[1], m.tail[0] = m.tail[1], m.tail[0], t

	// This retirement fills the previous transfer's delay slot: under
	// predict-not-taken hardware a taken transfer is only resolved now,
	// and the fetch that went one past this slot is squashed.
	if m.slotPending {
		m.slotPending = false
		if m.slotTaken && m.policy == PolicySquash {
			m.pending++
			m.res.FlushBubbleCycles++
		}
	}
	// ... and may itself open a slot.
	if d.flags&tdSlot != 0 {
		m.res.Transfers++
		if taken {
			m.res.TakenTransfers++
		}
		m.slotPending, m.slotTaken = true, taken
	}

	// A window overflow or underflow during this instruction ran the
	// spill/fill trap handler; the pipeline drains behind it.
	if d.flags&(tdPush|tdPop) != 0 {
		m.pending += traps
		m.res.WindowStallCycles += traps
	}
}

// ready returns the cycle at the end of which w's value exists: end of EX
// for ALU results, end of MEM for loads. A consumer's EX must start strictly
// later.
func ready(w writeRec) uint64 {
	if w.load {
		return w.ex + 1
	}
	return w.ex
}

// countForward attributes one EX operand to its delivery path given the
// producer-consumer EX distance.
func (m *Machine) countForward(d uint64, load bool) {
	switch {
	case d == 1 && !load:
		m.res.ForwardsEXMEM++
	case d == 2:
		m.res.ForwardsMEMWB++
	}
	// d >= 3: plain register-file read, no bypass involved.
}
