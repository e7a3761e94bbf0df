package pipeline

import (
	"testing"

	"risc1/internal/asm"
	"risc1/internal/core"
	"risc1/internal/isa"
	"risc1/internal/prog"
)

// BenchmarkPipelineSuite runs the 13 suite kernels on the delayed-jump
// pipeline, one pass per iteration, and reports host time per simulated
// cycle: the cost of the block engine plus the timing model riding on it.
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

// BenchmarkRetireFloor is the cost floor under the pipeline: the 13 suite
// kernels on the bare core with a Retire hook that prices nothing, in host
// ns per simulated pipeline cycle (the same denominator as
// BenchmarkPipelineSuite). "step" is the floor of pricing per instruction
// on the step oracle; "auto" is the floor of pricing per block run.
//
//	go test -run '^$' -bench RetireFloor -count 5 ./internal/pipeline
func BenchmarkRetireFloor(b *testing.B) {
	var imgs []*asm.Image
	var cycles uint64 // pipelined cycles of one pass
	cfg := core.Config{SaveStackBytes: 64 << 10}
	m := New(cfg, PolicyDelayed)
	for _, k := range prog.All() {
		img := compileBench(b, k)
		imgs = append(imgs, img)
		if err := m.Load(img); err != nil {
			b.Fatal(err)
		}
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
		cycles += m.Result().Cycles
	}
	for _, e := range []core.Engine{core.EngineStep, core.EngineAuto} {
		b.Run(e.String(), func(b *testing.B) {
			cfg := cfg
			cfg.Engine = e
			c := core.New(cfg)
			c.Retire = func(uint32, []isa.Inst, bool) {}
			for i := 0; i < b.N; i++ {
				for _, img := range imgs {
					if err := c.Load(img); err != nil {
						b.Fatal(err)
					}
					if err := c.Run(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles)/float64(b.N), "ns/cycle")
		})
	}
}
