package exp

import (
	"context"
	"fmt"

	"risc1/internal/asm"
	"risc1/internal/cc"
	"risc1/internal/machine"
	"risc1/internal/prog"
	"risc1/internal/report"
)

// E12CoreCounts are the machine sizes the scalability sweep measures.
var E12CoreCounts = []int{1, 2, 4, 8}

// E12Cell is one (kernel, core-count) measurement.
type E12Cell struct {
	Cores int
	// Elapsed is the machine's makespan: the maximum over cores of
	// executed plus contention cycles.
	Elapsed uint64
	// Speedup is the single-core elapsed time over this cell's.
	Speedup float64
	// Instructions totals retirements across every core.
	Instructions uint64
	// ContentionCycles totals the interconnect-arbitration penalty charged
	// across cores (zero on one core by construction).
	ContentionCycles uint64
	// TrafficBytes totals data reads and writes across cores — E5's
	// memory-traffic lens re-examined under sharing.
	TrafficBytes uint64
	Spawns       uint64
}

// E12Row is one parallel kernel's scalability curve.
type E12Row struct {
	Name  string
	Cells []E12Cell
}

// E12Result is the SMP scalability experiment: speedup and memory-traffic
// curves for the parallel kernels over 1..8 cores.
type E12Result struct {
	Rows  []E12Row
	Table *report.Table
}

// E12SMPScalability runs every parallel kernel on 1, 2, 4 and 8 cores of
// the shared-memory machine and reports the scalability curve: elapsed
// cycles (with the interconnect contention model engaged), speedup over one
// core, total retirements, contention charges, and the E5 memory-traffic
// totals under sharing. Each run's console output is checked against the
// kernel's reference answer, so the table only ever shows correct
// executions. The lab is unused — each run goes straight to package machine — but
// the signature matches the other experiments for Render.
func E12SMPScalability(_ *Lab) (*E12Result, error) {
	res := &E12Result{Table: &report.Table{
		Title: "E12. Shared-memory SMP scalability: parallel kernels on 1..8 cores",
		Note: "(elapsed = max over cores of executed+contention cycles; traffic = data bytes " +
			"moved by all cores, the E5 lens under sharing; psum/pcrunch are data-parallel, " +
			"pqsort serializes its merge on core 0)",
		Headers: []string{"benchmark", "cores", "elapsed", "speedup", "instr",
			"contention", "data traffic", "spawns"},
	}}

	for _, b := range prog.Parallel() {
		ccRes, err := cc.Compile(b.Source, cc.Options{Target: cc.RISCWindowed, WideData: true})
		if err != nil {
			return nil, fmt.Errorf("E12: compile %s: %w", b.Name, err)
		}
		img, err := asm.Assemble(ccRes.Asm)
		if err != nil {
			return nil, fmt.Errorf("E12: assemble %s: %w", b.Name, err)
		}
		row := E12Row{Name: b.Name}
		var base uint64
		for _, n := range E12CoreCounts {
			r, err := machine.Run(context.Background(), machine.Image{RISC: img}, machine.Config{
				Target: cc.RISCWindowed,
				Cores:  n,
			})
			if err != nil {
				return nil, fmt.Errorf("E12: %s on %d cores: %w", b.Name, n, err)
			}
			if got, want := r.Console, prog.Expected(b.Name); got != want {
				return nil, fmt.Errorf("E12: %s on %d cores: console %q, want %q",
					b.Name, n, got, want)
			}
			cell := E12Cell{
				Cores:        n,
				Elapsed:      r.Cycles,
				Instructions: r.Stats.Instructions,
				TrafficBytes: r.Stats.DataBytes(),
			}
			if r.SMP != nil { // nil on one core, which runs without the SMP machine
				cell.ContentionCycles, cell.Spawns = r.SMP.ContentionCycles, r.SMP.Spawns
			}
			if n == 1 {
				base = cell.Elapsed
			}
			if cell.Elapsed > 0 {
				cell.Speedup = float64(base) / float64(cell.Elapsed)
			}
			row.Cells = append(row.Cells, cell)
			res.Table.AddRow(b.Name,
				fmt.Sprintf("%d", n),
				report.Num(cell.Elapsed),
				fmt.Sprintf("%.2fx", cell.Speedup),
				report.Num(cell.Instructions),
				report.Num(cell.ContentionCycles),
				report.Num(cell.TrafficBytes),
				report.Num(cell.Spawns))
		}
		// Validation: the widest machine re-runs under the dynamic race
		// detector, so the table only ever describes executions that were
		// also checked race-free. (The detector forces the step engine,
		// which interleaves the cores as the measured run did.)
		widest := E12CoreCounts[len(E12CoreCounts)-1]
		checked, err := machine.Run(context.Background(), machine.Image{RISC: img}, machine.Config{
			Target: cc.RISCWindowed,
			Cores:  widest,
			Race:   true,
		})
		if err != nil {
			return nil, fmt.Errorf("E12: %s race check on %d cores: %w", b.Name, widest, err)
		}
		if len(checked.Races) != 0 {
			return nil, fmt.Errorf("E12: %s on %d cores is racy: %v", b.Name, widest, checked.Races)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
