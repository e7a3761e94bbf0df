package core

import "fmt"

// Engine selects how Run executes instructions. Step is the oracle the
// compiled engines are differentially tested against; the engines are
// observationally identical (Stats, console, faults, final machine state).
type Engine uint8

const (
	// EngineAuto is the fast engine: straight-line runs of predecoded
	// instructions execute as compiled basic blocks (block.go).
	// Individual instructions still single-step where a block cannot
	// apply: delay slots entered mid-flight, pending interrupts,
	// invalidated or undecodable code.
	EngineAuto Engine = iota
	// EngineStep forces the single-step interpreter: Step in a loop, the
	// reference semantics.
	EngineStep
)

// EngineInvalid is the sentinel ParseEngine returns alongside its error. It
// deliberately does not alias EngineAuto: a caller that drops the error and
// runs anyway gets a visibly wrong engine ("invalid"), not a silent auto
// run. New carries it to EngineAuto as defense in depth, but every parse
// boundary (riscrun, riscbench, riscd) must treat the error as fatal.
const EngineInvalid Engine = 0xFF

func (e Engine) String() string {
	switch e {
	case EngineStep:
		return "step"
	case EngineInvalid:
		return "invalid"
	default:
		return "auto"
	}
}

// ParseEngine maps the flag/API spelling to an Engine. The empty string is
// EngineAuto. On an unknown spelling it returns EngineInvalid, never a
// runnable engine value.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "auto":
		return EngineAuto, nil
	case "step":
		return EngineStep, nil
	}
	return EngineInvalid, fmt.Errorf("core: unknown engine %q (want auto or step)", s)
}
