package main

import (
	"context"
	"fmt"

	"risc1"
	"risc1/internal/asm"
	"risc1/internal/cc"
	"risc1/internal/cisc"
	"risc1/internal/core"
	"risc1/internal/lint"
	"risc1/internal/pipeline"
	"risc1/internal/prog"
	"risc1/internal/smp"
)

// kernel is one program of the suite with the console its Go reference
// implementation prints.
type kernel struct {
	name, source, want string
	parallel           bool // uses spawn/join, so it compiles for windowed only
}

func kernels() []kernel {
	var out []kernel
	for _, b := range prog.All() {
		out = append(out, kernel{b.Name, b.Source, prog.Expected(b.Name), false})
	}
	for _, b := range prog.Parallel() {
		out = append(out, kernel{b.Name, b.Source, prog.Expected(b.Name), true})
	}
	return out
}

// machine is one way of running a compiled kernel, named as riscd names its
// targets.
type machine struct {
	name   string
	target risc1.Target
	cores  int // > 1 runs on the shared-memory machine
}

var (
	windowed  = machine{"windowed", risc1.RISCWindowed, 0}
	flat      = machine{"flat", risc1.RISCFlat, 0}
	cx        = machine{"cisc", risc1.CISC, 0}
	pipelined = machine{"pipelined", risc1.RISCPipelined, 0}
	smp4      = machine{"smp4", risc1.RISCWindowed, 4}
)

// saveStackBytes is the register-window save area the facade gives every RISC
// machine; the decomposed runs must match it to retire the same instructions.
const saveStackBytes = 64 << 10

// outcome is what one op produced. Every op's outcome is compared with a
// reference: the kernel's expected console plus the counts of its first run
// for simulation ops, the set-up compile of the same kernel for compile ops.
type outcome struct {
	console              string
	instructions, cycles uint64
	imageBytes, findings int
}

// facadeRun runs img the way riscd and riscbench do.
func facadeRun(img *risc1.Image, m machine) (outcome, error) {
	info, err := risc1.RunImage(context.Background(), img, risc1.RunOptions{Cores: m.cores})
	if err != nil {
		return outcome{}, fmt.Errorf("%s: %w", m.name, err)
	}
	return outcome{console: info.Console, instructions: info.Instructions, cycles: info.Cycles}, nil
}

// image is a compiled kernel in the layers' own types: one of the two is set.
type image struct {
	risc *asm.Image
	cx   *cisc.Image
}

func (img image) size() int {
	if img.cx != nil {
		return img.cx.Size()
	}
	return len(img.risc.Bytes)
}

// compile mirrors risc1.CompileToImage one layer call at a time.
func (t *tracer) compile(src string, target risc1.Target) (image, error) {
	ast, err := call(t, "cc.parse", func() (*cc.Program, error) { return cc.Parse(src) })
	if err != nil {
		return image{}, err
	}
	if target == risc1.CISC {
		text, err := call(t, "cc.codegen", func() (string, error) { return cc.GenerateCISC(ast) })
		if err != nil {
			return image{}, err
		}
		img, err := call(t, "cisc.assemble", func() (*cisc.Image, error) { return cisc.Assemble(text) })
		return image{cx: img}, err
	}
	text, err := call(t, "cc.codegen", func() (string, error) {
		return cc.GenerateRISC(ast, target != risc1.RISCFlat)
	})
	if err != nil {
		return image{}, err
	}
	t.begin("cc.delayslot")
	text, _ = cc.OptimizeDelaySlots(text)
	t.end()
	img, err := call(t, "asm.assemble", func() (*asm.Image, error) { return asm.Assemble(text) })
	t.c.riscCompiles++
	if err != nil && asm.IsOutOfRange(err) {
		// The facade's fallback for data beyond the global pointer's reach:
		// the whole compile again with 32-bit addressing. GenerateRISC has no
		// wide mode, so the retry goes through cc.Compile in one span.
		t.c.wideRetries++
		res, werr := call(t, "cc.wide_retry", func() (*cc.Result, error) {
			return cc.Compile(src, cc.Options{Target: target, WideData: true})
		})
		if werr != nil {
			return image{}, err
		}
		img, err = call(t, "asm.assemble", func() (*asm.Image, error) { return asm.Assemble(res.Asm) })
	}
	if err != nil {
		return image{}, err
	}
	t.c.riscImages++
	t.c.riscImageBytes += len(img.Bytes)
	return image{risc: img}, nil
}

// lint mirrors risc1.LintImage.
func (t *tracer) lint(img image, target risc1.Target) int {
	diags, _ := call(t, "lint.check", func() ([]lint.Diagnostic, error) {
		if img.cx != nil {
			return lint.CheckCISC(img.cx), nil
		}
		return lint.Check(img.risc, lint.Options{Flat: target == risc1.RISCFlat}), nil
	})
	t.c.lintImages++
	t.c.lintFindings += len(diags)
	return len(diags)
}

// run mirrors risc1.RunImage for the machine, one layer call at a time.
func (t *tracer) run(img image, m machine) (outcome, error) {
	ctx := context.Background()
	switch {
	case m.cores > 1:
		mc, err := call(t, "smp.load", func() (*smp.Machine, error) {
			return smp.New(img.risc, smp.Config{Cores: m.cores, Core: core.Config{SaveStackBytes: saveStackBytes}})
		})
		if err != nil {
			return outcome{}, err
		}
		if err := t.do("smp.run", func() error { return mc.Run(ctx) }); err != nil {
			return outcome{}, err
		}
		o := outcome{console: mc.Console(), cycles: mc.Elapsed()}
		for _, cs := range mc.CoreStats() {
			o.instructions += cs.Instructions
			t.c.smpCoreCycles += cs.Cycles + cs.ContentionCycles
		}
		t.c.smpInstr += o.instructions
		t.c.smpRounds += mc.Rounds()
		t.c.smpContention += mc.ContentionCycles()
		return o, nil

	case m.target == risc1.CISC:
		mc, err := call(t, "cisc.load", func() (*cisc.CPU, error) {
			mc := cisc.New(cisc.Config{})
			return mc, mc.Load(img.cx)
		})
		if err != nil {
			return outcome{}, err
		}
		if err := t.do("cisc.run", func() error { return mc.RunContext(ctx) }); err != nil {
			return outcome{}, err
		}
		s := mc.Stats()
		t.c.ciscInstr += s.Instructions
		return outcome{console: mc.Console(), instructions: s.Instructions, cycles: s.Cycles}, nil

	case m.target == risc1.RISCPipelined:
		pm, err := call(t, "pipeline.load", func() (*pipeline.Machine, error) {
			pm := pipeline.New(core.Config{SaveStackBytes: saveStackBytes}, pipeline.PolicyDelayed)
			return pm, pm.Load(img.risc)
		})
		if err != nil {
			return outcome{}, err
		}
		if err := t.do("pipeline.run", func() error { return pm.RunContext(ctx) }); err != nil {
			return outcome{}, err
		}
		r := pm.Result()
		t.c.pipeInstr += r.Instructions
		t.c.pipeCycles += r.Cycles
		t.c.pipeStall += r.StallCycles()
		t.c.pipeSlots += r.DelaySlots
		t.c.pipeFilled += r.DelaySlotsFilled
		return outcome{console: pm.CPU().Console(), instructions: pm.CPU().Stats().Instructions, cycles: r.Cycles}, nil
	}

	before := heapAllocs()
	mc, err := call(t, "core.load", func() (*core.CPU, error) {
		mc := core.New(core.Config{Flat: m.target == risc1.RISCFlat, SaveStackBytes: saveStackBytes})
		return mc, mc.Load(img.risc)
	})
	t.c.coreLoads++
	t.c.coreLoadAllocBytes += heapAllocs() - before
	if err != nil {
		return outcome{}, err
	}
	if err := t.do("core.run", func() error { return mc.RunContext(ctx) }); err != nil {
		return outcome{}, err
	}
	s, ts := mc.Stats(), mc.TraceStats()
	t.c.coreRuns++
	t.c.coreInstr += s.Instructions
	t.c.coreTraceInstr += ts.Instructions
	t.c.coreTraces += ts.Compiled
	t.c.coreSideExits += ts.SideExits
	return outcome{console: mc.Console(), instructions: s.Instructions, cycles: s.Cycles}, nil
}
