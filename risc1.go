// Package risc1 is a library reproduction of "RISC I: A Reduced Instruction
// Set VLSI Computer" (Patterson & Séquin, ISCA 1981): a cycle-modelled
// simulator of the RISC I architecture — 31 instructions, overlapping
// register windows, delayed jumps — together with everything its published
// evaluation needs: a microcoded CISC comparator ("CX"), a small-C compiler
// with back ends for both machines (plus a windowless RISC ablation), the
// classic benchmark suite, and harnesses that regenerate each table and
// figure of the paper.
//
// Quick start:
//
//	out, err := risc1.BuildAndRun(`
//	    int main() { putint(6 * 7); return 0; }`, risc1.RISCWindowed)
//	fmt.Println(out.Console) // "42"
//
// For assembly-level work, create a Machine, load RISC I assembly, and step
// or run it:
//
//	m := risc1.NewMachine(risc1.MachineConfig{})
//	m.LoadAssembly("main: add r0,#1,r1\n ret r25,#8\n nop")
//	m.Run()
//
// The experiment harnesses behind the paper's tables are exposed through
// Experiment and ExperimentIDs; `go test -bench .` regenerates all of them.
package risc1

import (
	"context"

	"risc1/internal/asm"
	"risc1/internal/cc"
	"risc1/internal/cisc"
	"risc1/internal/core"
	"risc1/internal/exp"
	"risc1/internal/isa"
	"risc1/internal/lint"
	"risc1/internal/machine"
	"risc1/internal/pipeline"
	"risc1/internal/prog"
	"risc1/internal/smp"
)

// Target selects a compilation target for Cm sources.
type Target = cc.Target

// The three targets of the paper's methodology, plus the cycle-accurate
// pipelined model of the windowed machine.
const (
	// RISCWindowed is RISC I as built: register-window calling convention.
	RISCWindowed = cc.RISCWindowed
	// RISCFlat is the ablation: same ISA, conventional save/restore calls.
	RISCFlat = cc.RISCFlat
	// CISC is the CX comparator machine.
	CISC = cc.CISC
	// RISCPipelined runs windowed code on the cycle-accurate five-stage
	// pipeline model: architectural results identical to RISCWindowed
	// (the pipeline drives the same core), timing measured with
	// forwarding, interlocks, window-trap drains and a control-transfer
	// policy instead of unit instruction costs.
	RISCPipelined = cc.RISCPipelined
)

// ParseTarget maps the CLI/API spelling ("windowed" or "risc", "flat",
// "cisc" or "cx", "pipelined", or empty for windowed) to a Target.
func ParseTarget(s string) (Target, error) { return cc.ParseTarget(s) }

// Policy selects how the pipelined target resolves control transfers; see
// pipeline.Policy. Targets other than RISCPipelined ignore it.
type Policy = pipeline.Policy

// The control-transfer policies of the pipelined target.
const (
	// PolicyDelayed is the paper's delayed jump: the slot covers the
	// branch shadow exactly, taken transfers cost no extra cycle.
	PolicyDelayed = pipeline.PolicyDelayed
	// PolicySquash is predict-not-taken hardware on the same ISA: each
	// taken transfer squashes one wrong-path fetch (a one-cycle bubble).
	PolicySquash = pipeline.PolicySquash
)

// ParsePolicy maps the CLI/API spelling ("delayed", "squash", or empty for
// delayed) to a Policy.
func ParsePolicy(s string) (Policy, error) { return pipeline.ParsePolicy(s) }

// Engine selects how the RISC I core executes: compiled basic blocks (the
// default) or the single-step reference interpreter. The engines are
// observationally identical — same console, statistics, faults, and on
// more than one core the same interleaving — and differ only in speed;
// see core.Engine.
type Engine = core.Engine

// The execution engines. EngineAuto runs compiled basic blocks; EngineStep
// is the reference interpreter.
const (
	EngineAuto = core.EngineAuto
	EngineStep = core.EngineStep
)

// ParseEngine maps the CLI/API spelling ("auto", "step", or empty for
// auto) to an Engine.
func ParseEngine(s string) (Engine, error) { return core.ParseEngine(s) }

// CompileOptions tunes Cm compilation.
type CompileOptions struct {
	// NoDelaySlotFill keeps a NOP in every delayed-transfer slot.
	NoDelaySlotFill bool
	// WideData uses full 32-bit addressing for globals instead of the
	// 8 KiB global-pointer window.
	WideData bool
}

// CompileCm compiles Cm source to assembly text for the given target.
func CompileCm(source string, target Target, opts CompileOptions) (string, error) {
	res, err := cc.Compile(source, cc.Options{
		Target:          target,
		NoDelaySlotFill: opts.NoDelaySlotFill,
		WideData:        opts.WideData,
	})
	if err != nil {
		return "", err
	}
	return res.Asm, nil
}

// MaxCores is the largest shared-memory machine RunOptions.Cores accepts.
const MaxCores = smp.MaxCores

// Typed SMP configuration errors, re-exported so callers can test with
// errors.Is; see internal/smp.
var (
	// ErrBadCores rejects a core count outside 1..MaxCores.
	ErrBadCores = smp.ErrBadCores
	// ErrWindowedOnly rejects a multi-core run on any target but
	// RISCWindowed: the spawn/join runtime leans on the register windows.
	ErrWindowedOnly = smp.ErrWindowedOnly
)

// DefaultMaxCycles is the cycle budget applied when a caller does not pick
// one: cmd/riscrun's -max-cycles default and the riscd serving layer's
// per-request ceiling both share this constant, so the CLI and the service
// enforce the same bound on runaway programs. (At the paper's 400 ns cycle
// this is ~7 simulated minutes — far beyond any legitimate benchmark.)
const DefaultMaxCycles uint64 = 1_000_000_000

// RunInfo summarizes one program execution; see machine.Info for its
// fields.
type RunInfo = machine.Info

// Race is one dynamically-observed data race; see internal/smp.
type Race = smp.Race

// RaceAccess is one side of a Race: which core touched the word, where,
// and whether it wrote.
type RaceAccess = smp.RaceAccess

// SMPInfo is the shared-memory machine's execution breakdown.
type SMPInfo = machine.SMP

// SMPCoreInfo is one core's share of a shared-memory run.
type SMPCoreInfo = smp.CoreStats

// PipelineInfo is the cycle-accurate pipeline's timing breakdown.
type PipelineInfo = machine.Pipeline

// BlockProfile is one row of the execution-heat profile: a basic-block
// leader and how many times a block dispatched there.
type BlockProfile = core.HeatEntry

// NGramCount is one measured dynamic opcode n-gram: block heat times the
// block's static opcode sequence, an observability surface showing which
// instruction sequences run hottest.
type NGramCount = core.NGram

// BuildAndRun compiles a Cm program, assembles it and runs it to completion
// on the selected machine, returning the console output and statistics.
func BuildAndRun(source string, target Target) (*RunInfo, error) {
	return BuildAndRunContext(context.Background(), source, target)
}

// BuildAndRunContext is BuildAndRun honoring ctx: cancellation or deadline
// expiry aborts the simulation within one run batch. A failed run returns a
// structured error (core.RunError / cisc.RunError) carrying the faulting PC,
// its disassembly, the cycle count and a register snapshot.
func BuildAndRunContext(ctx context.Context, source string, target Target) (*RunInfo, error) {
	img, err := CompileToImage(source, target)
	if err != nil {
		return nil, err
	}
	return RunImage(ctx, img, RunOptions{})
}

// Image is a compiled, loadable program for one target machine. An Image is
// immutable after creation — running it copies the bytes into a fresh
// machine — so one Image can safely serve many concurrent RunImage calls.
// This is the unit the riscd serving layer caches: compile once, run many.
type Image struct {
	target Target
	risc   *asm.Image
	cisc   *cisc.Image
}

// Target returns the machine the image was compiled for.
func (img *Image) Target() Target { return img.target }

// Size returns the image size in bytes (code plus initialized data).
func (img *Image) Size() int {
	if img.target == CISC {
		return img.cisc.Size()
	}
	return len(img.risc.Bytes)
}

// Disassemble renders the image's encoded listing.
func (img *Image) Disassemble() string {
	if img.target == CISC {
		return cisc.Disassemble(img.cisc)
	}
	return asm.Disassemble(img.risc)
}

// CompileToImage compiles a Cm program to a reusable Image for the given
// target, including BuildAndRun's wide-addressing fallback for RISC targets.
func CompileToImage(source string, target Target) (*Image, error) {
	if target == CISC {
		res, err := cc.Compile(source, cc.Options{Target: target})
		if err != nil {
			return nil, err
		}
		ci, err := cisc.Assemble(res.Asm)
		if err != nil {
			return nil, err
		}
		return &Image{target: target, cisc: ci}, nil
	}
	ri, _, err := cc.BuildRISC(source, cc.Options{Target: target})
	if err != nil {
		return nil, err
	}
	return &Image{target: target, risc: ri}, nil
}

// AssembleToImage assembles machine-level source to a reusable Image: RISC I
// assembly for the RISC targets (RISCWindowed, RISCFlat and RISCPipelined
// differ only in how the machine runs the image, not in its encoding), CX
// assembly for CISC.
func AssembleToImage(source string, target Target) (*Image, error) {
	if target == CISC {
		ci, err := cisc.Assemble(source)
		if err != nil {
			return nil, err
		}
		return &Image{target: target, cisc: ci}, nil
	}
	ri, err := asm.Assemble(source)
	if err != nil {
		return nil, err
	}
	return &Image{target: target, risc: ri}, nil
}

// RunOptions bounds one image execution.
type RunOptions struct {
	// MaxCycles aborts the run once the machine has simulated this many
	// cycles (RISC) or microcycles (CX). Zero keeps the machine default.
	MaxCycles uint64
	// Engine selects the RISC core execution engine. The CX machine has a
	// single interpreter and ignores it; on the pipelined target the
	// timing model prices what the engine retires, a block or one
	// instruction at a time.
	Engine Engine
	// Policy selects the pipelined target's control-transfer policy
	// (delayed or squash); other targets ignore it.
	Policy Policy
	// Profile collects the execution-heat table and dynamic opcode
	// n-grams into RunInfo.Profile / RunInfo.NGrams. Heat counts block
	// dispatches, so both are empty on CISC and under the step engine.
	Profile bool
	// Cores runs the image on a shared-memory machine of this many RISC I
	// cores (1..MaxCores; 0 means 1). Multi-core runs require the
	// RISCWindowed target — every other target returns ErrWindowedOnly —
	// and fill RunInfo.SMP. MaxCycles bounds each core individually.
	Cores int
	// Race runs the image under the dynamic race detector: a hybrid
	// lockset/happens-before shadow memory records unsynchronized access
	// pairs to shared words into RunInfo.Races. It routes the run through
	// the shared-memory machine (so it requires RISCWindowed, even at one
	// core) and forces the step engine for exact access attribution —
	// expect a slower run. Every engine interleaves the cores the same way,
	// so a run with Race retires what the same run without it does.
	Race bool
	// Monitor, when non-nil, observes the run while it is in flight —
	// the seam the riscd streaming API is built on. It never changes
	// architectural results; a run with a Monitor retires the same
	// instructions and prints the same console as one without.
	Monitor *RunMonitor
}

// RunMonitor observes a run in flight. Both callbacks run on the simulation
// goroutine: a callback that blocks stalls the guest program, which is how a
// streaming consumer applies backpressure deliberately. Either field may be
// nil.
type RunMonitor struct {
	// Console receives each console rendering (one putc byte or one putint
	// decimal string) as the guest emits it, including output the retained
	// console buffer drops at its cap — live consumers see everything even
	// when RunInfo.Console is truncated.
	Console func(chunk string)
	// Progress is called periodically — at run-batch boundaries on the
	// single-core machines, after each scheduling round on the SMP
	// machine — with the instruction and cycle counters retired so far.
	Progress func(instructions, cycles uint64)
}

// RunImage runs a compiled image to completion on a machine of its target
// with zeroed memory, honoring ctx like BuildAndRunContext. The image is not
// modified, so concurrent RunImage calls on one Image are safe.
func RunImage(ctx context.Context, img *Image, opt RunOptions) (*RunInfo, error) {
	r, err := runImage(ctx, img, opt)
	if err != nil {
		return nil, err
	}
	return &r.Info, nil
}

// runImage is RunImage returning the machine's whole result.
func runImage(ctx context.Context, img *Image, opt RunOptions) (*machine.Result, error) {
	cfg := machine.Config{
		Target:    img.target,
		MaxCycles: opt.MaxCycles,
		Engine:    opt.Engine,
		Policy:    opt.Policy,
		Cores:     opt.Cores,
		Race:      opt.Race,
		Profile:   opt.Profile,
	}
	if mon := opt.Monitor; mon != nil {
		cfg.Console, cfg.Progress = mon.Console, mon.Progress
	}
	return machine.Run(ctx, machine.Image{RISC: img.risc, CX: img.cisc}, cfg)
}

// MachineConfig sizes an assembly-level RISC I machine.
type MachineConfig struct {
	// Windows is the number of register windows: 0 for the paper's 8,
	// otherwise at least 3 (NewMachine panics below that).
	Windows   int
	Flat      bool // disable window sliding
	MemSize   int  // RAM bytes (0 = 1 MiB)
	MaxCycles uint64
	// Engine selects the execution engine (auto or step).
	Engine Engine
}

// Machine is an assembly-level RISC I processor.
type Machine struct {
	cpu       *core.CPU
	lastImage *asm.Image
}

// NewMachine builds a RISC I machine.
func NewMachine(cfg MachineConfig) *Machine {
	return &Machine{cpu: core.New(core.Config{
		Windows:   cfg.Windows,
		Flat:      cfg.Flat,
		MemSize:   cfg.MemSize,
		MaxCycles: cfg.MaxCycles,
		Engine:    cfg.Engine,
	})}
}

// LoadAssembly assembles RISC I source and loads it at its origin.
func (m *Machine) LoadAssembly(source string) error {
	img, err := asm.Assemble(source)
	if err != nil {
		return err
	}
	m.lastImage = img
	return m.cpu.Load(img)
}

// Run executes until halt, fault, or the cycle limit.
func (m *Machine) Run() error { return m.cpu.Run() }

// RunContext is Run honoring ctx: cancellation or deadline expiry aborts
// within one run batch, returning a structured core.RunError wrapping
// ctx.Err().
func (m *Machine) RunContext(ctx context.Context) error { return m.cpu.RunContext(ctx) }

// Step executes one instruction. The configured MaxCycles budget is exact
// and enforced here as well as in Run: a step that would begin at or beyond
// the limit refuses to execute.
func (m *Machine) Step() error { return m.cpu.Step() }

// Halted reports whether the program has finished.
func (m *Machine) Halted() bool { return m.cpu.Halted() }

// PC returns the program counter.
func (m *Machine) PC() uint32 { return m.cpu.PC() }

// Reg reads a visible register of the current window.
func (m *Machine) Reg(r uint8) uint32 { return m.cpu.Reg(r) }

// Console returns everything the program printed.
func (m *Machine) Console() string { return m.cpu.Console() }

// Info returns the execution statistics so far, with the heat profile and
// n-grams RunOptions.Profile adds to a RunImage report.
func (m *Machine) Info() *RunInfo {
	size := 0
	if m.lastImage != nil {
		size = len(m.lastImage.Bytes)
	}
	return &machine.FromCore(m.cpu, size).Info
}

// Profile returns the execution-heat table accumulated so far, hottest
// first. Heat counts block dispatches; the step engine leaves it empty.
func (m *Machine) Profile() []BlockProfile { return m.cpu.HeatProfile() }

// HotNGrams returns the top measured dynamic opcode n-grams (n clamped to
// 2 or 3).
func (m *Machine) HotNGrams(n, top int) []NGramCount { return m.cpu.HotNGrams(n, top) }

// Interrupt queues an external interrupt. When interrupts are enabled the
// processor redirects to vector at the next instruction boundary; the
// handler uses CALLINT to capture the restart PC (sliding to a fresh
// register window) and RETINT to resume.
func (m *Machine) Interrupt(vector uint32) { m.cpu.Interrupt(vector) }

// Symbol looks up a label in the most recently loaded program.
func (m *Machine) Symbol(name string) (uint32, bool) {
	if m.lastImage == nil {
		return 0, false
	}
	return m.lastImage.Symbol(name)
}

// SetTrace installs (or clears, with nil) a per-instruction trace callback
// receiving each executed instruction's address and disassembly, in
// execution order. An instruction that faults is not traced. The sequence
// is the same under every engine.
func (m *Machine) SetTrace(f func(pc uint32, disasm string)) {
	if f == nil {
		m.cpu.Retire = nil
		return
	}
	m.cpu.Retire = func(pc uint32, insts []isa.Inst, _ bool) {
		for i := range insts {
			f(pc+uint32(4*i), insts[i].String())
		}
	}
}

// Disassemble renders RISC I assembly for an assembled source, with
// addresses and encodings (a convenience for debugging and teaching).
func Disassemble(source string) (string, error) {
	img, err := asm.Assemble(source)
	if err != nil {
		return "", err
	}
	return asm.Disassemble(img), nil
}

// CompileAndDisassemble compiles a Cm program and returns the target
// machine's encoded listing — handy for comparing how the fixed-format
// RISC I and the variable-length CX spell the same program. RISC targets
// share BuildAndRun's wide-addressing fallback, so any program that runs
// also disassembles.
func CompileAndDisassemble(source string, target Target) (string, error) {
	img, err := CompileToImage(source, target)
	if err != nil {
		return "", err
	}
	return img.Disassemble(), nil
}

// Diagnostic is one static-analysis finding; see package lint.
type Diagnostic = lint.Diagnostic

// Severity ranks a Diagnostic.
type Severity = lint.Severity

// Diagnostic severities, least severe first.
const (
	SevInfo    = lint.SevInfo
	SevWarning = lint.SevWarning
	SevError   = lint.SevError
)

// Count returns how many diagnostics are at least as severe as min.
func Count(diags []Diagnostic, min Severity) int { return lint.Count(diags, min) }

// LintOptions tunes the static analysis.
type LintOptions struct {
	// SMP forces the concurrency passes (smp-race, smp-lock, smp-spawn)
	// on windowed images. The passes engage automatically when the image
	// contains SMP operations — spawn/join/lock runtime calls or direct
	// device-page accesses — so the flag only matters for declaring
	// intent: with it set, an image meant to be concurrent is analyzed as
	// such even if the analysis finds no SMP operations to anchor on.
	SMP bool
}

// LintImage statically analyzes a compiled or assembled image: CFG
// construction honoring the delayed-transfer semantics, then the dataflow
// passes of package lint (delay-slot hazards, branch targets,
// register-window depth, use-before-def, constant memory accesses,
// unreachable code, and — on images that use the shared-memory runtime —
// the concurrency lockset/race passes). CISC images get the subset of
// checks that translate to the CX machine. The result is sorted by
// address; it is empty for a clean image.
func LintImage(img *Image, opts LintOptions) []Diagnostic {
	if img.target == CISC {
		return lint.CheckCISC(img.cisc)
	}
	return lint.Check(img.risc, lint.Options{
		Flat: img.target == RISCFlat,
		SMP:  opts.SMP,
	})
}

// LintCm compiles a Cm program for the given target and lints the result —
// the convenience behind ccm's -lint flag.
func LintCm(source string, target Target, opts LintOptions) ([]Diagnostic, error) {
	img, err := CompileToImage(source, target)
	if err != nil {
		return nil, err
	}
	return LintImage(img, opts), nil
}

// LintAssembly assembles machine-level source for the given target and
// lints the result — the convenience behind riscasm's -lint flag.
func LintAssembly(source string, target Target, opts LintOptions) ([]Diagnostic, error) {
	img, err := AssembleToImage(source, target)
	if err != nil {
		return nil, err
	}
	return LintImage(img, opts), nil
}

// BenchmarkNames lists the benchmark suite.
func BenchmarkNames() []string {
	var out []string
	for _, b := range prog.All() {
		out = append(out, b.Name)
	}
	return out
}

// BenchmarkSource returns a suite benchmark's Cm source.
func BenchmarkSource(name string) (string, bool) {
	b, ok := prog.ByName(name)
	return b.Source, ok
}

// ExperimentIDs lists the paper's tables and figures in order. E10, E11 and
// E12 are this repository's extensions: the analytical pipeline-organization
// ablation behind the delayed-jump design decision, its cycle-accurate
// measurement on the five-stage pipeline model, and the shared-memory SMP
// scalability sweep.
func ExperimentIDs() []string { return exp.IDs() }

// Lab caches benchmark runs across experiments: many experiments share
// configurations (e.g. the default windowed suite), so running them through
// one Lab simulates each configuration only once. Safe for concurrent use.
type Lab struct {
	l *exp.Lab
}

// NewLab builds an empty experiment lab.
func NewLab() *Lab { return &Lab{l: exp.NewLab()} }

// Experiment runs one reproduction experiment and returns its rendered
// table(s). IDs are E1..E12; see DESIGN.md for the experiment index.
func Experiment(id string) (string, error) {
	return NewLab().Experiment(id)
}

// Experiment runs one experiment against the lab's shared run cache.
func (lab *Lab) Experiment(id string) (string, error) {
	return exp.Render(lab.l, id)
}
