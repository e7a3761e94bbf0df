package cisc

import "testing"

// BenchmarkSimulatorThroughput measures host performance of the CX
// interpreter on a tight loop, which runs from the predecoded instruction
// cache after its first pass.
func BenchmarkSimulatorThroughput(b *testing.B) {
	img := MustAssemble(`
	main:	.mask
		clrl r1
		movl #1000000, r2
	loop:	incl r1
		cmpl r1, r2
		blt loop
		ret
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
		b.ReportMetric(float64(c.Stats().Instructions), "sim-instructions/op")
	}
}

// BenchmarkCXSuite runs the 13 suite kernels on CX, one pass per
// iteration, and reports host time per simulated CX instruction.
//
//	go test -run '^$' -bench CXSuite -count 5 ./internal/cisc
func BenchmarkCXSuite(b *testing.B) {
	imgs := compileSuite(b)
	var instructions uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, img := range imgs {
			c := New(Config{})
			if err := c.Load(img); err != nil {
				b.Fatal(err)
			}
			if err := c.Run(); err != nil {
				b.Fatal(err)
			}
			instructions += c.Stats().Instructions
			c.Mem.Release()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instructions), "ns/instr")
}
