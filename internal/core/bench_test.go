package core

import (
	"testing"

	"risc1/internal/asm"
)

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
