package cc

import "fmt"

// Target selects a code generator.
type Target int

// The three compilation targets of the evaluation.
const (
	// RISCWindowed is RISC I as built: register-window calling convention.
	RISCWindowed Target = iota
	// RISCFlat is the ablation: the same ISA compiled with a conventional
	// save/restore calling convention and no window sliding.
	RISCFlat
	// CISC is the CX comparator machine.
	CISC
	// RISCPipelined runs the windowed machine on the cycle-accurate
	// five-stage pipeline model: identical code generation and
	// architectural results, measured rather than unit-cost timing.
	RISCPipelined
)

func (t Target) String() string {
	switch t {
	case RISCWindowed:
		return "risc-windowed"
	case RISCFlat:
		return "risc-flat"
	case CISC:
		return "cisc"
	case RISCPipelined:
		return "risc-pipelined"
	}
	return fmt.Sprintf("target%d", int(t))
}

// ParseTarget maps the CLI/API spelling ("windowed" or "risc", "flat",
// "cisc" or "cx", "pipelined", or empty for windowed) to a Target.
func ParseTarget(s string) (Target, error) {
	switch s {
	case "", "windowed", "risc":
		return RISCWindowed, nil
	case "flat":
		return RISCFlat, nil
	case "cisc", "cx":
		return CISC, nil
	case "pipelined":
		return RISCPipelined, nil
	}
	return 0, fmt.Errorf("unknown target %q (want windowed, flat, cisc or pipelined)", s)
}

// Options controls compilation.
type Options struct {
	Target Target
	// NoDelaySlotFill keeps NOPs in every delay slot (RISC targets only);
	// the delayed-jump experiment compares both settings.
	NoDelaySlotFill bool
	// WideData disables gp-relative addressing of globals on the RISC
	// targets (r8 anchored at 4096, reaching the first 8 KiB with one
	// instruction) in favour of full 32-bit la sequences. Use it for
	// programs whose code+data exceeds 8 KiB.
	WideData bool
}

// Result is a compilation product.
type Result struct {
	Asm         string // assembly text for the target's assembler
	SlotsFilled int    // delay slots filled by the optimizer (RISC only)
}

// Compile parses, checks and compiles a Cm source file for the target.
func Compile(src string, opts Options) (*Result, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	switch opts.Target {
	case RISCWindowed, RISCFlat, RISCPipelined:
		text, _, err := generateRISC(prog, opts.Target != RISCFlat, !opts.WideData)
		if err != nil {
			return nil, err
		}
		res := &Result{}
		res.Asm, res.SlotsFilled = fillSlots(text, opts)
		return res, nil
	case CISC:
		text, err := GenerateCISC(prog)
		if err != nil {
			return nil, err
		}
		return &Result{Asm: text}, nil
	}
	return nil, fmt.Errorf("cc: unknown target %v", opts.Target)
}
