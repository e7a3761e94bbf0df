package core

import (
	"testing"

	"risc1/internal/asm"
)

// BenchmarkSimulatorThroughput measures host instructions/second of the
// RISC I simulator on a tight arithmetic loop — the number that bounds how
// much simulated work the experiment suite can afford.
func BenchmarkSimulatorThroughput(b *testing.B) {
	img := asm.MustAssemble(`
	main:	add r0,#0,r1
		li #1000000,r2
	loop:	add r1,#1,r1
		cmp r1,r2
		blt loop
		nop
		ret r25,#8
		nop
	`)
	// The sub-benchmarks are named after the tier each engine tops out at;
	// CI's engine perf guard reads step, block and trace.
	for _, tier := range []struct {
		name string
		e    Engine
	}{{"step", EngineStep}, {"block", EngineBlock}, {"trace", EngineAuto}} {
		e := tier.e
		b.Run(tier.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := New(Config{Engine: e})
				if err := c.Load(img); err != nil {
					b.Fatal(err)
				}
				if err := c.Run(); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(c.Stats().Instructions), "sim-instructions/op")
			}
		})
	}
}

// BenchmarkCallReturn measures the simulator on the windowed call path,
// including occasional spill traps.
func BenchmarkCallReturn(b *testing.B) {
	img := asm.MustAssemble(`
	main:	add r0,#0,r16
		li #100000,r17
	loop:	callr r25,f
		nop
		add r16,#1,r16
		cmp r16,r17
		blt loop
		nop
		ret r25,#8
		nop
	f:	ret r25,#8
		nop
	`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := New(Config{})
		if err := c.Load(img); err != nil {
			b.Fatal(err)
		}
		if err := c.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
