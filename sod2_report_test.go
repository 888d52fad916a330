package sod2

import (
	"reflect"
	"testing"

	"repro/internal/frameworks"
	"repro/internal/graph"
	"repro/internal/guard"
	"repro/internal/lattice"
	"repro/internal/models"
	"repro/internal/symbolic"
	"repro/internal/tensor"
)

// TestInferReportMatchesEngine is the differential check on the serving
// Report: Compiled.Infer prices the guarded run's own trace, and the
// result must equal the engine's execute-then-price SoD2.Run on the same
// sample — for every model, at the minimum and the middle of its size
// range (YOLO-V6's middle, 432, breaks the stride-32 fact and runs on
// the dynamic tier), sequential and wavefront-parallel.
func TestInferReportMatchesEngine(t *testing.T) {
	const workers = 4
	for _, b := range Models() {
		c, err := Compile(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int64{b.MinSize, (b.MinSize + b.MaxSize) / 2} {
			s := NewSample(b, size, 0.5, 11)
			for _, parallel := range []bool{false, true} {
				_, got, err := c.InferGuarded(s.Inputs, GuardOptions{Parallel: parallel, Workers: workers})
				if err != nil {
					t.Fatalf("%s@%d parallel=%v: %v", b.Name, size, parallel, err)
				}
				opts := frameworks.FullSoD2()
				if parallel && got.FallbackTier == TierPlanned {
					opts.ParallelWorkers = workers
				}
				want, err := frameworks.NewSoD2(opts).Run(c.inner, s, SD888CPU)
				if err != nil {
					t.Fatal(err)
				}
				if got.LatencyMS != want.LatencyMS || got.PeakMemBytes != want.PeakMemBytes ||
					!reflect.DeepEqual(got.Phases, want.Phases) ||
					got.Wavefronts != want.Wavefronts || got.Specialized != want.Specialized {
					t.Errorf("%s@%d parallel=%v: Infer report (%.6g ms, %d B, %v, %d waves, specialized %v) != SoD2.Run (%.6g ms, %d B, %v, %d waves, specialized %v)",
						b.Name, size, parallel,
						got.LatencyMS, got.PeakMemBytes, got.Phases, got.Wavefronts, got.Specialized,
						want.LatencyMS, want.PeakMemBytes, want.Phases, want.Wavefronts, want.Specialized)
				}
			}
		}
	}
}

// TestInferReportTakesGuardTier: the Report's tier and degradations are
// the guarded run's own — for a forced-dynamic (quarantined) request and
// for a specialization fallback onto the original graph.
func TestInferReportTakesGuardTier(t *testing.T) {
	check := func(t *testing.T, c *Compiled, inputs map[string]*Tensor, opts GuardOptions) Report {
		t.Helper()
		_, gr, err := c.inner.GuardedRun(inputs, opts)
		if err != nil {
			t.Fatal(err)
		}
		_, rep, err := c.InferGuarded(inputs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if rep.FallbackTier != gr.Tier || !reflect.DeepEqual(rep.Degradations, gr.Degradations) {
			t.Errorf("report tier %v %v, guarded run %v %v", rep.FallbackTier, rep.Degradations, gr.Tier, gr.Degradations)
		}
		if rep.LatencyMS <= 0 || rep.PeakMemBytes <= 0 {
			t.Errorf("report not priced: %.3g ms, %d B", rep.LatencyMS, rep.PeakMemBytes)
		}
		return rep
	}

	t.Run("forced-dynamic", func(t *testing.T) {
		b, err := BuildModel("SkipNet")
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(b)
		if err != nil {
			t.Fatal(err)
		}
		rep := check(t, c, NewSample(b, b.MinSize, 0.5, 5).Inputs, GuardOptions{ForceDynamic: true})
		if rep.FallbackTier != TierDynamic || len(rep.Degradations) != 1 ||
			rep.Degradations[0].Kind != guard.KindQuarantine {
			t.Errorf("forced-dynamic report: tier %v, degradations %v", rep.FallbackTier, rep.Degradations)
		}
	})

	t.Run("spec-fallback", func(t *testing.T) {
		b := regionIfModel()
		c, err := Compile(b)
		if err != nil {
			t.Fatal(err)
		}
		if !c.inner.SpecCert.RegionDependent() {
			t.Fatal("fixture certificate must be region-dependent")
		}
		rep := check(t, c, b.Inputs(tensor.NewRNG(1), 1, 0.5), GuardOptions{})
		if !rep.SpecFallback || rep.Specialized || rep.FallbackTier != TierDynamic {
			t.Errorf("spec-fallback report: fallback %v, specialized %v, tier %v",
				rep.SpecFallback, rep.Specialized, rep.FallbackTier)
		}
		// In-region requests stay on the specialized graph.
		_, in, err := c.Infer(b.Inputs(tensor.NewRNG(1), 8, 0.5))
		if err != nil {
			t.Fatal(err)
		}
		if in.SpecFallback || !in.Specialized {
			t.Errorf("in-region report: fallback %v, specialized %v", in.SpecFallback, in.Specialized)
		}
	})
}

// regionIfModel is a model whose If predicate, Greater(L, 1), is
// constant over its sampled range L ∈ [2, 16]: the specializer inlines
// the then-arm under a region-dependent certificate, so a request with
// L = 1 must fall back to the original graph.
func regionIfModel() *models.Builder {
	body := func(name, op string) *graph.Graph {
		g := graph.New(name)
		g.AddInput(name+".x", tensor.Float32, lattice.UndefShape())
		g.Op(op, name+".op", []string{name + ".x"}, []string{name + ".y"}, nil)
		g.AddOutput(name + ".y")
		return g
	}
	return &models.Builder{
		Name: "region-if", Kind: models.KindText,
		MinSize: 2, MaxSize: 16, SizeStep: 2,
		Build: func() *graph.Graph {
			g := graph.New("region-if")
			g.AddInput("x", tensor.Float32, lattice.Ranked(
				lattice.FromInt(1), lattice.FromExpr(symbolic.NewSym("L")), lattice.FromInt(8)))
			g.AddInitializer("idx1", tensor.ScalarInt(1))
			g.AddInitializer("one", tensor.ScalarInt(1))
			g.Op("Shape", "shp", []string{"x"}, []string{"xs"}, nil)
			g.Op("Gather", "gl", []string{"xs", "idx1"}, []string{"l"}, nil)
			g.Op("Greater", "gt", []string{"l", "one"}, []string{"cond"}, nil)
			g.Op("Relu", "pre", []string{"x"}, []string{"h"}, nil)
			g.Op("If", "if1", []string{"cond", "h"}, []string{"y"}, map[string]graph.AttrValue{
				"then_branch": graph.GraphAttr(body("then", "Relu")),
				"else_branch": graph.GraphAttr(body("else", "Neg")),
			})
			g.AddOutput("y")
			return g
		},
		Inputs: func(rng *tensor.RNG, size int64, _ float32) map[string]*tensor.Tensor {
			return map[string]*tensor.Tensor{"x": tensor.RandomFloats(rng, 1, 1, size, 8)}
		},
	}
}
