package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	sod2 "repro"
	"repro/internal/artifact"
	"repro/internal/frameworks"
	"repro/internal/models"
	"repro/internal/staticverify"
)

// compile-boot: repeated rounds that bring all ten models up from
// nothing — cold CompileVerified, save to a fresh artifact store, warm
// CompileStored from it, one smoke request per model. It exercises the
// paper's static analyses (rdp, fusion, plan and its Pareto search,
// absint, staticverify, memplan) and the artifact store, with almost no
// serving or kernel load: a kernel change should leave it unmoved, and
// a compiler change cannot hide in another workload's set-up time.
//
// A smoke "request" is the first inference a model serves after its
// warm boot; latency is its wall time, throughput the smoke requests per
// second of round time (compile, save, boot and smoke).
const bootLimitMS = 3000

// bootRound is one measured round.
type bootRound struct {
	coldS, saveS, warmS, smokeS float64
	recs                        []*record
	warm                        map[string]*served
}

func (r *bootRound) seconds() float64 { return r.coldS + r.saveS + r.warmS + r.smokeS }

// smokeDraws draws one smoke request per model: its minimum size at
// gate 0.5, with fresh input tensors from rng. Fixing size and gate
// makes every round's smoke requests cost the same, so the median smoke
// latency stays one model's latency instead of a point in the gap
// between the cheap and the expensive models that moves with the draws.
func smokeDraws(rng *rand.Rand, bs []*models.Builder) map[string]draw {
	out := map[string]draw{}
	for _, b := range bs {
		out[b.Name] = draw{model: b.Name, size: b.MinSize, gate: 0.5, seed: rng.Uint64()}
	}
	return out
}

// runRound performs one round. smoke issues a model's smoke request(s)
// on its warm-booted session; the round's frameworks-level cold compile
// rides along as served.fw for the cold-versus-warm gate and the probes.
// A warm boot that is not warm or that ran a plan search fails the
// model's smoke requests.
func runRound(env *runEnv, bs []*models.Builder, draws map[string]draw, opts sod2.SessionOptions,
	smoke func(s *served, d draw) []*record) (*bootRound, error) {
	// A round stands for a process booting, which starts from an empty
	// heap: collect the previous round's models first, so that the peak
	// resident set does not depend on when the collector last ran.
	runtime.GC()
	dir, err := os.MkdirTemp(env.workdir, "store-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := artifact.Open(dir)
	if err != nil {
		return nil, err
	}
	r := &bootRound{warm: map[string]*served{}}
	cold := map[string]*frameworks.Compiled{}
	reps := map[string]*staticverify.Report{}

	t := time.Now()
	for _, b := range bs {
		c, rep, err := frameworks.CompileVerified(b)
		if err != nil {
			return nil, fmt.Errorf("cold compile %s: %w", b.Name, err)
		}
		cold[b.Name], reps[b.Name] = c, rep
	}
	r.coldS = time.Since(t).Seconds()

	t = time.Now()
	for _, b := range bs {
		hash, err := frameworks.ModelHash(cold[b.Name].OrigGraph)
		if err != nil {
			return nil, err
		}
		key := artifact.Key{ModelHash: hash, Device: device}
		if err := st.Save(key, frameworks.Snapshot(cold[b.Name], reps[b.Name], key)); err != nil {
			return nil, fmt.Errorf("save %s: %w", b.Name, err)
		}
	}
	r.saveS = time.Since(t).Seconds()

	// The warm boot and its smoke requests stand for a serving process,
	// which holds none of the cold compile's garbage: collect it before
	// each is timed.
	runtime.GC()
	gate := map[string]error{}
	t = time.Now()
	for _, b := range bs {
		before := sod2.BootCounters().PlanSearches
		c, _, info, err := sod2.CompileStored(b, st, device)
		searches := sod2.BootCounters().PlanSearches - before
		if err != nil {
			return nil, fmt.Errorf("warm boot %s: %w", b.Name, err)
		}
		gate[b.Name] = warmGate(info, searches)
		r.warm[b.Name] = &served{b: b, c: c, sess: c.NewSession(opts), fw: cold[b.Name]}
	}
	r.warmS = time.Since(t).Seconds()

	runtime.GC()
	for _, b := range bs {
		for _, rec := range smoke(r.warm[b.Name], draws[b.Name]) {
			if rec.err == nil {
				rec.err = gate[b.Name]
			}
			r.smokeS += rec.latMS / 1000
			r.recs = append(r.recs, rec)
		}
	}
	return r, nil
}

// warmGate is compile-boot's boot-side correctness gate: a warm boot
// must come from the store and run no plan search.
func warmGate(info sod2.BootInfo, searches uint64) error {
	switch {
	case !info.Warm:
		return fmt.Errorf("warm boot fell back to a cold compile (%v)", info.CorruptFallback)
	case searches != 0:
		return fmt.Errorf("warm boot ran %d plan searches", searches)
	}
	return nil
}

// checkBoot is compile-boot's correctness gate, run outside the timed
// round on checkWorkers goroutines: every smoke output must be bit-
// identical to the same inputs run on the round's cold compile, and to
// the reference.
func checkBoot(orc *oracle, r *bootRound) {
	var wg sync.WaitGroup
	next := make(chan *record)
	for w := 0; w < checkWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rec := range next {
				s := r.warm[rec.d.model]
				res, _, err := s.fw.GuardedRun(rec.d.inputs(s.b), frameworks.GuardOptions{})
				switch {
				case err != nil:
					rec.wrong = fmt.Errorf("cold compile run: %w", err)
				default:
					if err := sameOutputs(res.Outputs, rec.out); err != nil {
						rec.wrong = fmt.Errorf("warm boot differs from cold compile: %w", err)
					} else {
						rec.wrong = orc.check(rec.d.model, rec.d.inputs(s.b), rec.out)
					}
				}
				rec.out = nil
			}
		}()
	}
	for _, rec := range r.recs {
		if rec.err == nil {
			next <- rec
		}
	}
	close(next)
	wg.Wait()
}

func runBoot(env *runEnv) (*outcome, error) {
	bs := models.All()
	o := &outcome{}
	var setupS []float64
	var orc *oracle
	for rep := 0; rep < shortSetupReps; rep++ {
		t0 := env.setupStart(rep)
		orc = newOracle(bs)
		orc.prebuild(checkWorkers)
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	o.add("setup_s", "s", median(setupS), "median of %d set-ups (build %d reference graphs per model)", shortSetupReps, checkWorkers)
	o.printf("compile-boot: rounds of cold CompileVerified, save, warm CompileStored, 1 smoke request per model; %d models", len(bs))
	rng := seededRand(env.seed)

	if env.traced {
		return o, tracedBoot(env, o, orc, rng, bs)
	}

	var rounds []*bootRound
	var timed float64
	for timed < env.window.Seconds() {
		r, err := runRound(env, bs, smokeDraws(rng, bs), sod2.SessionOptions{},
			func(s *served, d draw) []*record { return []*record{sessionCall(s, d)} })
		if err != nil {
			return nil, err
		}
		checkBoot(orc, r)
		rounds = append(rounds, r)
		timed += r.seconds()
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	var lat, colds, saves, warms []float64
	var recs []*record
	good := 0
	for _, r := range rounds {
		colds, saves, warms = append(colds, r.coldS), append(saves, r.saveS), append(warms, r.warmS)
		for _, rec := range r.recs {
			lat = append(lat, rec.latMS)
			recs = append(recs, rec)
			if !rec.failed() && rec.latMS <= bootLimitMS {
				good++
			}
		}
	}
	addLatency(o, lat, "smoke request start")
	var names []string
	for _, b := range bs {
		names = append(names, b.Name)
	}
	perModel(o, recs, names)
	o.add("throughput_rps", "req/s", float64(len(recs))/timed, "smoke requests per second of round time, %d rounds in %.1f s", len(rounds), timed)
	o.add("goodput_rps", "req/s", float64(good)/timed, "correct, gates passed and <= %d ms", bootLimitMS)
	o.add("cold_compile_s", "s", median(colds), "CompileVerified of %d models, median of %d rounds", len(bs), len(rounds))
	o.add("warm_boot_s", "s", median(warms), "CompileStored of %d models from the round's store, median of %d rounds", len(bs), len(rounds))
	o.add("peak_rss_mb", "MB", rss, "VmHWM after the last round")
	o.printf("  artifact save of %d models: median %.4f s per round", len(bs), median(saves))
	o.attempted = len(recs)
	o.failed = failures(o, recs)
	return o, nil
}

// tracedBoot is compile-boot's traced run: a third of the window of
// plain rounds for the counters, then rounds whose smoke requests are
// traced like tracedSessions' requests (the probes run on the round's
// cold compile), then the compile-stage attribution.
func tracedBoot(env *runEnv, o *outcome, orc *oracle, rng *rand.Rand, bs []*models.Builder) error {
	tr := newTracer()
	opts := sod2.SessionOptions{Hooks: tr.hooks()}
	before := counters{gc: readGC(), cache: map[string]sod2.CacheStats{}}
	after := counters{cache: map[string]sod2.CacheStats{}}
	var recs []*record
	n, dynamic := 0, 0
	for round, timed := 0, 0.0; timed < env.window.Seconds()/3; round++ {
		r, err := runRound(env, bs, smokeDraws(rng, bs), opts,
			func(s *served, d draw) []*record { return []*record{sessionCall(s, d)} })
		if err != nil {
			return err
		}
		checkBoot(orc, r)
		timed += r.seconds()
		for name, s := range r.warm {
			st := s.sess.Stats()
			after.cache[fmt.Sprintf("%d/%s", round, name)] = st.Cache
			after.retries += st.Retries
			after.shed += st.Admission.Shed()
		}
		for _, rec := range r.recs {
			n++
			if rec.dynamic {
				dynamic++
			}
		}
		recs = append(recs, r.recs...)
	}
	after.gc = readGC()
	addCounterLayers(o, before, after, n, dynamic)

	p := &probes{}
	req := 0
	var probeErr error
	smoke := func(s *served, d draw) []*record {
		i := req
		req++
		traced, plain := tracedPair(tr, s, d, i)
		p.overheadPct = append(p.overheadPct, 100*(traced.latMS-plain.latMS)/plain.latMS)
		if err := p.direct(tr, i, s.fw, d.inputs(s.b)); err != nil && probeErr == nil {
			probeErr = fmt.Errorf("%s: %w", d.model, err)
		}
		return []*record{traced, plain}
	}
	for timed := 0.0; timed < env.window.Seconds()*2/3; {
		r, err := runRound(env, bs, smokeDraws(rng, bs), opts, smoke)
		if err != nil {
			return err
		}
		if probeErr != nil {
			return probeErr
		}
		checkBoot(orc, r)
		timed += r.seconds()
		recs = append(recs, r.recs...)
	}
	o.attempted = len(recs)
	o.failed = failures(o, recs)
	if err := attributeCompile(env, o, bs); err != nil {
		return err
	}
	addTraceLayers(o, tr.snapshot(), "request", p)
	return tr.write(filepath.Join(env.workdir, "traces", fmt.Sprintf("compile-boot-seed%d.jsonl", env.seed)))
}
