package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/absint"
	"repro/internal/artifact"
	"repro/internal/costmodel"
	"repro/internal/fold"
	"repro/internal/frameworks"
	"repro/internal/fusion"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/plan"
	"repro/internal/rdp"
	"repro/internal/staticverify"
)

// compileStages are the stages of a cold compile that attributeOnce
// times one by one; frameworks.compile_other_ms is the rest of
// frameworks.compile_ms.
var compileStages = []string{
	"rdp.analyze_ms", "absint.specialize_ms", "fusion.fuse_ms",
	"plan.build_ms", "plan.pareto_ms", "staticverify.verify_ms",
}

// buildGraph mirrors the compile pipeline's front end: build, validate,
// fold constants.
func buildGraph(b *models.Builder) (*graph.Graph, error) {
	g := b.Build()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if _, err := fold.Fold(g); err != nil {
		return nil, err
	}
	return g, nil
}

// attributeCompile times each static analysis of the compile pipeline by
// calling its public entry point on a freshly built graph, summed over
// bs, setupReps times; it reports the median of each stage. It also
// saves and loads every artifact and warm-boots each model, counting
// plan searches on the warm path (which must stay 0).
func attributeCompile(env *runEnv, o *outcome, bs []*models.Builder) error {
	reps := map[string][]float64{}
	var searches uint64
	for rep := 0; rep < setupReps; rep++ {
		st, n, gateFails, err := attributeOnce(env, bs)
		if err != nil {
			return err
		}
		searches += n
		for k, v := range st {
			reps[k] = append(reps[k], v)
		}
		o.attempted += len(bs)
		o.failed += len(gateFails)
		for _, e := range gateFails {
			o.printf("  FAILED %v", e)
		}
	}
	for _, k := range append([]string{"frameworks.compile_ms"}, append(compileStages, "artifact.save_ms", "artifact.load_ms")...) {
		o.add(k, "ms", median(reps[k]), "summed over %d models, median of %d", len(bs), setupReps)
	}
	o.add("frameworks.compile_other_ms", "ms", median(reps["frameworks.compile_other_ms"]),
		"compile_ms minus the timed stages (input probes, wave scoring, version planning)")
	o.add("frameworks.warm_plan_searches", "count", float64(searches), "over %d warm boots (must be 0)", setupReps*len(bs))
	return nil
}

// attributeOnce is one repetition of attributeCompile. Warm boots that
// fail warmGate are returned as failures, not errors.
func attributeOnce(env *runEnv, bs []*models.Builder) (map[string]float64, uint64, []error, error) {
	var gateFails []error
	dir, err := os.MkdirTemp(env.workdir, "store-*")
	if err != nil {
		return nil, 0, nil, err
	}
	defer os.RemoveAll(dir)
	st, err := artifact.Open(dir)
	if err != nil {
		return nil, 0, nil, err
	}
	ms := map[string]float64{}
	clock := func(stage string, fn func() error) error {
		t := time.Now()
		err := fn()
		ms[stage] += float64(time.Since(t).Nanoseconds()) / 1e6
		if err != nil {
			return fmt.Errorf("%s: %w", stage, err)
		}
		return nil
	}
	var searches uint64
	for _, b := range bs {
		var c *frameworks.Compiled
		var region staticverify.Region
		if err := clock("frameworks.compile_ms", func() error {
			cc, rep, err := frameworks.CompileVerified(b)
			if err == nil {
				c, region = cc, rep.Region
			}
			return err
		}); err != nil {
			return nil, 0, nil, err
		}

		g, err := buildGraph(b)
		if err != nil {
			return nil, 0, nil, err
		}
		hash, err := frameworks.ModelHash(g)
		if err != nil {
			return nil, 0, nil, err
		}
		var res *rdp.Result
		if err := clock("rdp.analyze_ms", func() (err error) {
			res, err = rdp.Analyze(g, nil, rdp.Options{})
			return err
		}); err != nil {
			return nil, 0, nil, err
		}
		infos := res.Infos
		if err := clock("absint.specialize_ms", func() error {
			sg, cert, err := absint.Specialize(g, infos, absint.Options{Region: region})
			if err == nil && cert.TopologyChanged() {
				var r2 *rdp.Result
				if r2, err = rdp.Analyze(sg, nil, rdp.Options{}); err == nil {
					g, infos = sg, r2.Infos
				}
			}
			return err
		}); err != nil {
			return nil, 0, nil, err
		}
		var fp *fusion.Plan
		_ = clock("fusion.fuse_ms", func() error {
			fp = fusion.Fuse(g, infos, fusion.RDP)
			fusion.Fuse(g, infos, fusion.Static)
			return nil
		})
		var anchor *plan.Plan
		if err := clock("plan.build_ms", func() (err error) {
			anchor, err = plan.Build(g, infos, plan.Options{Fusion: fp})
			return err
		}); err != nil {
			return nil, 0, nil, err
		}
		if err := clock("plan.pareto_ms", func() error {
			_, err := plan.ParetoFrontier(g, infos, anchor, plan.ParetoOptions{
				Fusion: fp, MaxFactor: costmodel.SD888CPU.SchedCapFactor})
			return err
		}); err != nil {
			return nil, 0, nil, err
		}
		c.Invalidate()
		var proven bool
		_ = clock("staticverify.verify_ms", func() error {
			proven = c.Verify().Mem.Proven
			return nil
		})
		if !proven {
			return nil, 0, nil, fmt.Errorf("%s: re-verification did not prove the memory plan", b.Name)
		}

		key := artifact.Key{ModelHash: hash, Device: device}
		if err := clock("artifact.save_ms", func() error {
			return st.Save(key, frameworks.Snapshot(c, c.Verify(), key))
		}); err != nil {
			return nil, 0, nil, err
		}
		if err := clock("artifact.load_ms", func() error {
			_, err := st.Load(key)
			return err
		}); err != nil {
			return nil, 0, nil, err
		}
		before := frameworks.Counters().PlanSearches
		_, _, info, err := frameworks.CompileWithStore(b, st, device)
		if err != nil {
			return nil, 0, nil, err
		}
		n := frameworks.Counters().PlanSearches - before
		searches += n
		if err := warmGate(info, n); err != nil {
			gateFails = append(gateFails, fmt.Errorf("%s: %w", b.Name, err))
		}
	}
	other := ms["frameworks.compile_ms"]
	for _, k := range compileStages {
		other -= ms[k]
	}
	ms["frameworks.compile_other_ms"] = other
	return ms, searches, gateFails, nil
}
