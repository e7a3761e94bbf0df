package cc

import "risc1/internal/asm"

// BuildRISC compiles a Cm program for a RISC target and assembles it. The
// default gp-relative addressing reaches only the first 8 KiB, so when that
// text fails to assemble with nothing but range errors, BuildRISC builds
// again with full 32-bit addressing (WideData) and returns the wide result.
// Any other error is returned as it stands. slotsFilled counts the delay
// slots filled in the text that was assembled.
//
// The source is parsed once: both addressing modes are generated from the
// same Program, which generation leaves untouched. Generation errors do not
// depend on the addressing mode, so once the narrow text generates, the wide
// one does too. When narrow generation already shows that a gp-relative
// reference is out of reach, BuildRISC skips the narrow delay-slot pass and
// assembly and builds wide at once; if that wide build fails, it falls back
// to the full sequence so every error is the one the sequence reports.
func BuildRISC(src string, opts Options) (img *asm.Image, slotsFilled int, err error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, 0, err
	}
	windowed := opts.Target != RISCFlat
	text, farData, err := generateRISC(prog, windowed, !opts.WideData)
	if err != nil {
		return nil, 0, err
	}
	if farData {
		if img, slots, err := buildWide(prog, windowed, opts); err == nil {
			return img, slots, nil
		}
	}
	text, slotsFilled = fillSlots(text, opts)
	img, err = asm.Assemble(text)
	if err == nil || opts.WideData || !asm.IsOutOfRange(err) {
		return img, slotsFilled, err
	}
	return buildWide(prog, windowed, opts)
}

// buildWide generates prog with full 32-bit addressing, fills its delay
// slots as opts asks, and assembles it.
func buildWide(prog *Program, windowed bool, opts Options) (*asm.Image, int, error) {
	text, _, err := generateRISC(prog, windowed, false)
	if err != nil {
		return nil, 0, err
	}
	text, slots := fillSlots(text, opts)
	img, err := asm.Assemble(text)
	return img, slots, err
}

// fillSlots runs the delay-slot optimizer unless opts turns it off.
func fillSlots(text string, opts Options) (string, int) {
	if opts.NoDelaySlotFill {
		return text, 0
	}
	return OptimizeDelaySlots(text)
}
