// Benchmarks: one testing.B target per paper table/figure (each drives
// the same experiment harness `cmd/sod2bench` runs, with a small sample
// count so `go test -bench=.` stays tractable), plus wall-clock kernel
// and ablation benchmarks for the design choices DESIGN.md calls out.
package sod2

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/bench"
	"repro/internal/frameworks"
	"repro/internal/fusion"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/memplan"
	"repro/internal/models"
	"repro/internal/plan"
	"repro/internal/rdp"
	"repro/internal/symbolic"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// benchExperiment runs one harness experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		s := bench.NewSuite(bench.Options{Samples: 2, Seed: 7, Out: io.Discard})
		if err := s.Run(id); err != nil {
			b.Fatal(err)
		}
	}
}

// Tables.
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }
func BenchmarkTable6(b *testing.B) { benchExperiment(b, "table6") }
func BenchmarkTable7(b *testing.B) { benchExperiment(b, "table7") }

// Figures.
func BenchmarkFig5(b *testing.B)            { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)            { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)            { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)            { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)            { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)           { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)           { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)           { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)           { benchExperiment(b, "fig13") }
func BenchmarkMemPlanAblation(b *testing.B) { benchExperiment(b, "memopt") }

// ---- Wall-clock kernel benchmarks -------------------------------------

// BenchmarkGemmVariants measures the real speed of each generated GEMM
// code version (the MVC substrate, §4.4.2) on its own regime.
func BenchmarkGemmVariants(b *testing.B) {
	shapes := []struct {
		name    string
		m, k, n int64
	}{
		{"regular_128", 128, 128, 128},
		{"fat_512x32", 512, 64, 32},
		{"skinny_32x512", 32, 64, 512},
	}
	for _, sh := range shapes {
		rng := tensor.NewRNG(3)
		a := tensor.RandomFloats(rng, 1, sh.m, sh.k)
		bb := tensor.RandomFloats(rng, 1, sh.k, sh.n)
		c := make([]float32, sh.m*sh.n)
		for _, v := range kernels.GemmVariants() {
			b.Run(fmt.Sprintf("%s/%s", sh.name, v), func(b *testing.B) {
				b.SetBytes((sh.m*sh.k + sh.k*sh.n + sh.m*sh.n) * 4)
				for i := 0; i < b.N; i++ {
					for j := range c {
						c[j] = 0
					}
					kernels.Gemm(v, a.F, bb.F, sh.m, sh.k, sh.n, c)
				}
			})
		}
	}
}

// BenchmarkConvVariants compares the direct and im2col conv kernels.
func BenchmarkConvVariants(b *testing.B) {
	rng := tensor.NewRNG(5)
	x := tensor.RandomFloats(rng, 1, 1, 16, 56, 56)
	w := tensor.RandomFloats(rng, 1, 32, 16, 3, 3)
	for _, variant := range []int64{0, 1} { // direct, im2col
		name := "direct"
		if variant == 1 {
			name = "im2col"
		}
		b.Run(name, func(b *testing.B) {
			n := &graph.Node{Name: "c", OpType: "Conv", Outputs: []string{"y"},
				Attrs: map[string]graph.AttrValue{
					"pads":         graph.IntsAttr(1, 1, 1, 1),
					"conv_variant": graph.IntAttr(variant),
				}}
			for i := 0; i < b.N; i++ {
				if _, err := kernels.Run(n, []*tensor.Tensor{x, w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Compiler-stage benchmarks ----------------------------------------

// BenchmarkRDPAnalysis measures the analysis itself over every model.
func BenchmarkRDPAnalysis(b *testing.B) {
	for _, m := range models.All() {
		g := m.Build()
		b.Run(m.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rdp.Analyze(g, nil, rdp.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRDPBackwardAblation compares convergence cost with and
// without backward transfer (design-choice ablation).
func BenchmarkRDPBackwardAblation(b *testing.B) {
	g, _ := models.Get("CodeBERT")
	built := g.Build()
	for _, disabled := range []bool{false, true} {
		name := "with-backward"
		if disabled {
			name = "forward-only"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rdp.Analyze(built, nil, rdp.Options{DisableBackward: disabled}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSymbolicCanon measures the canonicalizing simplifier — the
// fusion hit-rate depends on it being cheap enough to run everywhere.
func BenchmarkSymbolicCanon(b *testing.B) {
	h := symbolic.NewSym("H")
	w := symbolic.NewSym("W")
	for i := 0; i < b.N; i++ {
		e := symbolic.Add(
			symbolic.Div(symbolic.Mul(h, w, symbolic.NewConst(4)), symbolic.NewConst(2)),
			symbolic.Mul(symbolic.NewConst(3), h),
			symbolic.Neg(h),
		)
		if _, err := e.Eval(symbolic.Env{"H": 32, "W": 16}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecPlanSearch compares the exhaustive subset-DP ordering
// search against the greedy heuristic on a planning-friendly graph.
func BenchmarkExecPlanSearch(b *testing.B) {
	m, _ := models.Get("CodeBERT")
	g := m.Build()
	res, err := rdp.Analyze(g, nil, rdp.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, cap := range []int{0, 14} {
		name := "greedy-only"
		if cap == 14 {
			name = "with-exhaustive"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := plan.Options{ExhaustiveCap: 1}
				if cap > 0 {
					opts.ExhaustiveCap = cap
				}
				if _, err := plan.Build(g, res.Infos, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFusionModes measures SFusion vs RDP fusion planning cost.
func BenchmarkFusionModes(b *testing.B) {
	m, _ := models.Get("StableDiffusion")
	g := m.Build()
	res, err := rdp.Analyze(g, nil, rdp.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []fusion.Mode{fusion.Static, fusion.RDP} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fusion.Fuse(g, res.Infos, mode)
			}
		})
	}
}

// BenchmarkMemoryPlanners measures the three offset planners on a real
// trace-derived program.
func BenchmarkMemoryPlanners(b *testing.B) {
	m, _ := models.Get("YOLO-V6")
	c, err := frameworks.Compile(m)
	if err != nil {
		b.Fatal(err)
	}
	s := workload.Fixed(m, 1, 320, 0.5, 3)[0]
	res, err := c.Execute(s, false, frameworks.OrderPlanned)
	if err != nil {
		b.Fatal(err)
	}
	prog := frameworks.TraceProgram(c.Graph, res.Trace, c.FusionRDP.Internal)
	b.Run("peak-first", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			memplan.PeakFirst(prog)
		}
	})
	b.Run("best-fit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			memplan.BestFit(prog)
		}
	})
}

// BenchmarkEndToEndInference measures the real executor (kernels + Go)
// per model at the minimum input size.
func BenchmarkEndToEndInference(b *testing.B) {
	for _, m := range models.All() {
		c, err := frameworks.Compile(m)
		if err != nil {
			b.Fatal(err)
		}
		s := workload.Fixed(m, 1, m.MinSize, 0.5, 3)[0]
		b.Run(m.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.ID = 0 // disable memoization: measure the real run
				if _, err := c.Execute(s, false, frameworks.OrderPlanned); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInfer measures one guarded inference per model through the
// public Compiled.Infer at the minimum input size: contract binding,
// execution and the modeled Report — everything a serving request pays,
// where BenchmarkEndToEndInference times only the bare executor. Run
// with -benchmem for allocs/op and B/op.
func BenchmarkInfer(b *testing.B) {
	for _, m := range Models() {
		c, err := Compile(m)
		if err != nil {
			b.Fatal(err)
		}
		s := NewSample(m, m.MinSize, 0.5, 3)
		b.Run(m.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := c.Infer(s.Inputs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
