package pipeline

import (
	"testing"

	"risc1/internal/asm"
	"risc1/internal/core"
	"risc1/internal/prog"
)

// BenchmarkPipelineSuite runs the 13 suite kernels on the delayed-jump
// pipeline, one pass per iteration, and reports host time per simulated
// cycle: the cost of the step oracle plus the timing model riding on it.
//
//	go test -run '^$' -bench PipelineSuite -count 5 ./internal/pipeline
func BenchmarkPipelineSuite(b *testing.B) {
	var imgs []*asm.Image
	for _, k := range prog.All() {
		imgs = append(imgs, compileBench(b, k))
	}
	cfg := core.Config{SaveStackBytes: 64 << 10}
	m := New(cfg, PolicyDelayed)
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, img := range imgs {
			if err := m.Load(img); err != nil {
				b.Fatal(err)
			}
			if err := m.Run(); err != nil {
				b.Fatal(err)
			}
			cycles += m.Result().Cycles
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
}
