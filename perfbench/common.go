package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	sod2 "repro"
	"repro/internal/costmodel"
	"repro/internal/frameworks"
	"repro/internal/models"
	"repro/internal/tensor"
	"repro/internal/workload"
)

const (
	// device is the cost-model profile and artifact-store key every
	// workload compiles for (the serving default).
	device = "sd888-cpu"
	// setupReps is how many times a run repeats its set-up; setup_s
	// reports the median. A set-up that takes under 0.1 s (text-http,
	// compile-boot) repeats shortSetupReps times instead: a median of
	// five spans that short moves with any blip of the host.
	setupReps      = 5
	shortSetupReps = 15
	// checkWorkers runs reference checks on both CPUs after the measured
	// window (the host has two).
	checkWorkers = 2
)

// setupStart is when set-up repetition rep starts: the first counts
// from process start; a later one starts after a collection, so that
// the garbage of the repetition before is not swept inside its time.
func (env *runEnv) setupStart(rep int) time.Time {
	if rep == 0 {
		return env.start
	}
	runtime.GC()
	return time.Now()
}

// draw is one request of a workload: a model, its dynamic extent, its
// control-flow gate, and the seed its input tensors are generated from.
// Inputs are regenerated from the draw for the reference check, so the
// benchmark holds no request tensors across the measured window.
type draw struct {
	model string
	size  int64
	gate  float32
	seed  uint64
}

func (d draw) inputs(b *models.Builder) map[string]*tensor.Tensor {
	return b.Inputs(tensor.NewRNG(d.seed), d.size, d.gate)
}

// alignedSize maps a quantile u in [0,1) onto b's size grid (MinSize
// plus whole SizeSteps) restricted to [lo, hi].
func alignedSize(b *models.Builder, lo, hi int64, u float64) int64 {
	step := b.SizeStep
	if step <= 0 {
		step = 1
	}
	if lo < b.MinSize {
		lo = b.MinSize
	}
	if hi > b.MaxSize {
		hi = b.MaxSize
	}
	first := b.MinSize + (lo-b.MinSize+step-1)/step*step
	if first > hi {
		return first
	}
	steps := (hi - first) / step
	k := int64(u * float64(steps+1))
	if k > steps {
		k = steps
	}
	return first + k*step
}

// record is one timed request and its checked outcome.
type record struct {
	d     draw
	latMS float64
	out   map[string]*tensor.Tensor
	err   error // typed error, refusal or non-200 status
	wrong error // output differs from the reference
	// dynamic marks a request that completed on a fallback tier.
	dynamic bool
}

func (r *record) failed() bool { return r.err != nil || r.wrong != nil }

// checkRecords compares every successful record's outputs with the
// reference, on checkWorkers goroutines, after the measured window.
func checkRecords(o *oracle, recs []*record) {
	var wg sync.WaitGroup
	next := make(chan *record)
	for w := 0; w < checkWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range next {
				r.wrong = o.check(r.d.model, r.d.inputs(o.byName[r.d.model]), r.out)
				r.out = nil
			}
		}()
	}
	for _, r := range recs {
		if r.err == nil {
			next <- r
		}
	}
	close(next)
	wg.Wait()
}

// failures counts failed records and prints the first few causes.
func failures(o *outcome, recs []*record) int {
	n := 0
	for _, r := range recs {
		if !r.failed() {
			continue
		}
		if n < 5 {
			cause := r.err
			if cause == nil {
				cause = fmt.Errorf("wrong output: %w", r.wrong)
			}
			o.printf("  FAILED %s size %d gate %.3f: %v", r.d.model, r.d.size, r.d.gate, cause)
		}
		n++
	}
	return n
}

// addLatency reports latency_p50_ms and latency_p90_ms over recs plus
// the highest percentile the sample supports.
func addLatency(o *outcome, lat []float64, from string) {
	s := sortedCopy(lat)
	p50, b50 := percentile(s, 50)
	p90, b90 := percentile(s, 90)
	o.add("latency_p50_ms", "ms", p50, "n=%d, %d beyond, from %s", len(s), b50, from)
	note := "n=%d, %d beyond"
	if b90 < minBeyond {
		note += " (fewer than 10 beyond: under-sampled)"
	}
	o.add("latency_p90_ms", "ms", p90, note, len(s), b90)
	if p, v, b, ok := tailPercentile(s); ok {
		o.printf("  tail: p%g = %.3f ms (n=%d, %d beyond; highest percentile with >= %d beyond)", p, v, len(s), b, minBeyond)
	}
}

// perModel prints each model's request count, median and slowest
// latency, in the order the models are listed.
func perModel(o *outcome, recs []*record, names []string) {
	lat := map[string][]float64{}
	for _, r := range recs {
		lat[r.d.model] = append(lat[r.d.model], r.latMS)
	}
	for _, n := range names {
		s := sortedCopy(lat[n])
		if len(s) == 0 {
			continue
		}
		p50, _ := percentile(s, 50)
		o.printf("  %-16s n=%-4d p50 %9.3f ms  max %9.3f ms", n, len(s), p50, s[len(s)-1])
	}
}

// served is one compiled model the benchmark drives.
type served struct {
	b    *models.Builder
	c    *sod2.Compiled
	sess *sod2.Session
	// fw is a second, frameworks-level compile of the same model, made
	// only in traced runs: it is the handle for timing GuardedRun and
	// the report's re-execution separately.
	fw *frameworks.Compiled
}

// compileServed runs the cold CompileVerified of every model and opens a
// session on each.
func compileServed(bs []*models.Builder, opts sod2.SessionOptions, twin bool) (map[string]*served, error) {
	out := map[string]*served{}
	for _, b := range bs {
		c, err := compileCold(b)
		if err != nil {
			return nil, err
		}
		s := &served{b: b, c: c, sess: c.NewSession(opts)}
		if twin {
			if s.fw, _, err = frameworks.CompileVerified(b); err != nil {
				return nil, fmt.Errorf("compile %s: %w", b.Name, err)
			}
		}
		out[b.Name] = s
	}
	return out, nil
}

// compileCold is the cold CompileVerified a serving workload boots
// with; a memory plan that is not proven is an error.
func compileCold(b *models.Builder) (*sod2.Compiled, error) {
	c, rep, err := sod2.CompileVerified(b)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", b.Name, err)
	}
	if !rep.Mem.Proven {
		return nil, fmt.Errorf("compile %s: memory plan not proven", b.Name)
	}
	return c, nil
}

// bootTimer times cold compiles and warm boots of a serving workload's
// model set in two clusters, one just before the measured window and
// one just after it, so that cold_compile_s and warm_boot_s are medians
// over the whole run rather than over the host's speed during a couple
// of seconds. Every repetition starts from a collected heap, so that no
// garbage of the window or of an earlier repetition is swept inside the
// timed compiles.
type bootTimer struct {
	bs []*models.Builder
	// coldReps and warmReps are the cold compiles and warm boots of
	// the set per cluster.
	coldReps, warmReps int
	dir                string
	st                 *sod2.ArtifactStore
	// cold and warm hold the seconds of each compile or boot of the set.
	cold, warm []float64
	// fails are warm boots that were not warm or ran a plan search.
	fails []error
}

// newBootTimer saves every model of bs to a fresh artifact store that
// the warm boots load from.
func newBootTimer(env *runEnv, bs []*models.Builder, coldReps, warmReps int) (*bootTimer, error) {
	dir, err := os.MkdirTemp(env.workdir, "store-*")
	if err != nil {
		return nil, err
	}
	t := &bootTimer{bs: bs, coldReps: coldReps, warmReps: warmReps, dir: dir}
	if t.st, err = sod2.OpenStore(dir); err != nil {
		t.close()
		return nil, err
	}
	for _, b := range bs {
		if _, _, info, err := sod2.CompileStored(b, t.st, device); err != nil || !info.Saved {
			t.close()
			return nil, fmt.Errorf("save %s: %v %v", b.Name, err, info.SaveErr)
		}
	}
	return t, nil
}

func (t *bootTimer) close() { os.RemoveAll(t.dir) }

// cluster times coldReps cold compiles, then warmReps warm boots, of
// the set. It ends with a collection, so the window that may follow
// starts from a collected heap.
func (t *bootTimer) cluster() error {
	for i := 0; i < t.coldReps; i++ {
		runtime.GC()
		var total float64
		for _, b := range t.bs {
			start := time.Now()
			_, err := compileCold(b)
			total += time.Since(start).Seconds()
			if err != nil {
				return err
			}
		}
		t.cold = append(t.cold, total)
	}
	for i := 0; i < t.warmReps; i++ {
		runtime.GC()
		var total float64
		for _, b := range t.bs {
			before := sod2.BootCounters().PlanSearches
			start := time.Now()
			_, _, info, err := sod2.CompileStored(b, t.st, device)
			total += time.Since(start).Seconds()
			if err == nil {
				err = warmGate(info, sod2.BootCounters().PlanSearches-before)
			}
			if err != nil {
				t.fails = append(t.fails, fmt.Errorf("%s: %w", b.Name, err))
			}
		}
		t.warm = append(t.warm, total)
	}
	runtime.GC()
	return nil
}

// report adds cold_compile_s and warm_boot_s and prints any failed
// warm boot; it returns how many boots were attempted and failed.
func (t *bootTimer) report(o *outcome) (attempted, failed int) {
	o.add("cold_compile_s", "s", median(t.cold), "CompileVerified of %d models, median of %d in two clusters around the window", len(t.bs), len(t.cold))
	o.add("warm_boot_s", "s", median(t.warm), "CompileStored of %d models from a populated store, median of %d in two clusters around the window", len(t.bs), len(t.warm))
	for _, e := range t.fails {
		o.printf("  FAILED warm boot %v", e)
	}
	return len(t.warm) * len(t.bs), len(t.fails)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not in /proc/self/status")
}

// gcSample is a runtime/metrics reading of GC work.
type gcSample struct {
	gcCPU, totalCPU float64
	cycles          uint64
}

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/automatic:gc-cycles"},
	}
	metrics.Read(s)
	var g gcSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		g.cycles = s[2].Value.Uint64()
	}
	return g
}

// counters snapshots what the phase-one counters of a traced run are
// computed from.
type counters struct {
	gc      gcSample
	cache   map[string]sod2.CacheStats
	retries uint64
	shed    uint64
}

func readCounters(fleet map[string]*served) counters {
	c := counters{gc: readGC(), cache: map[string]sod2.CacheStats{}}
	for name, s := range fleet {
		st := s.sess.Stats()
		c.cache[name] = st.Cache
		c.retries += st.Retries
		c.shed += st.Admission.Shed()
	}
	return c
}

// addCounterLayers reports the counter-based layer metrics of n requests
// served between two snapshots. dynamic counts requests that completed
// on a fallback tier.
func addCounterLayers(o *outcome, before, after counters, n, dynamic int) {
	var region, planHits, memo uint64
	for name, a := range after.cache {
		b := before.cache[name]
		region += a.RegionHits - b.RegionHits
		planHits += a.PlanHits - b.PlanHits
		memo += a.TraceHits - b.TraceHits
	}
	fn := float64(n)
	o.add("frameworks.region_hit_frac", "fraction", float64(region)/fn, "of %d requests", n)
	o.add("frameworks.plan_cache_hit_frac", "fraction", float64(planHits)/fn, "of %d requests", n)
	o.add("frameworks.dynamic_tier_frac", "fraction", float64(dynamic)/fn, "of %d requests", n)
	o.add("frameworks.trace_memo_hits", "count", float64(memo), "in %d anonymous requests (expected 0)", n)
	o.add("resilience.shed_frac", "fraction", float64(after.shed-before.shed)/fn, "of %d requests", n)
	o.add("session.retries", "count", float64(after.retries-before.retries), "in %d requests", n)
	cpu := after.gc.totalCPU - before.gc.totalCPU
	gcFrac := 0.0
	if cpu > 0 {
		gcFrac = (after.gc.gcCPU - before.gc.gcCPU) / cpu
	}
	o.add("go.gc_cpu_frac", "fraction", gcFrac, "GC share of process CPU over %d requests", n)
	o.add("go.gc_cycles", "count", float64(after.gc.cycles-before.gc.cycles)/fn, "automatic collections per request")
}

// probes accumulates the traced pass's per-request attribution.
type probes struct {
	guardedMS, reportMS []float64
	allocs, allocMB     []float64
	arenaMB             []float64
	modeledOverMeasured []float64
	overheadPct         []float64
}

// direct times the two halves of a request that the session runs back
// to back — the guarded execution and the report's re-execution of the
// model — as separate calls on the frameworks-level twin, on the same
// anonymous inputs. The guarded run is bracketed by MemStats reads; the
// traced pass is single-threaded, so the deltas are its allocations.
func (p *probes) direct(t *tracer, req int, fw *frameworks.Compiled, inputs map[string]*tensor.Tensor) error {
	var m0, m1 runtime.MemStats
	var gr *frameworks.GuardReport
	var err error
	runtime.ReadMemStats(&m0)
	_, g := t.timed("frameworks.guarded_run", 0, req, func() {
		_, gr, err = fw.GuardedRun(inputs, frameworks.GuardOptions{})
	})
	runtime.ReadMemStats(&m1)
	if err != nil {
		return fmt.Errorf("guarded run: %w", err)
	}
	var rep frameworks.Report
	_, r := t.timed("frameworks.report_model", 0, req, func() {
		rep, err = frameworks.NewSoD2(frameworks.FullSoD2()).Run(fw, workload.Sample{Inputs: inputs}, costmodel.SD888CPU)
	})
	if err != nil {
		return fmt.Errorf("report model: %w", err)
	}
	gMS := g.Seconds() * 1000
	p.guardedMS = append(p.guardedMS, gMS)
	p.reportMS = append(p.reportMS, r.Seconds()*1000)
	p.allocs = append(p.allocs, float64(m1.Mallocs-m0.Mallocs))
	p.allocMB = append(p.allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	p.arenaMB = append(p.arenaMB, float64(gr.ArenaHighWater)/(1<<20))
	p.modeledOverMeasured = append(p.modeledOverMeasured, rep.LatencyMS/gMS)
	return nil
}

// addTraceLayers reports the span- and probe-based layer metrics. Kernel
// spans are taken from the spans named entry (the traced request).
func addTraceLayers(o *outcome, spans []span, entry string, p *probes) {
	names := map[int]string{}
	for _, s := range spans {
		names[s.ID] = s.Name
	}
	kms, kflops := map[string]float64{}, map[string]float64{}
	launches := 0
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, "kernel.") || names[s.Parent] != entry {
			continue
		}
		c := strings.TrimPrefix(s.Name, "kernel.")
		kms[c] += s.ms()
		kflops[c] += s.Flops
		launches++
	}
	n := float64(len(p.guardedMS))
	var kernelTotal float64
	for _, c := range kernelClasses {
		kernelTotal += kms[c]
		o.add("kernels."+c+"_ms", "ms", kms[c]/n, "per request, hooked kernel time over %d requests", len(p.guardedMS))
	}
	o.add("kernels.launches", "count", float64(launches)/n, "per request")
	for _, c := range []string{classGemm, classConv} {
		gf := 0.0
		if kms[c] > 0 {
			gf = kflops[c] / (kms[c] / 1000) / 1e9
		}
		o.add("kernels."+c+"_gflops", "GFLOP/s", gf, "FLOPs computed from shapes / hooked time")
	}
	o.add("exec.self_ms", "ms", mean(p.guardedMS)-kernelTotal/n, "guarded run minus hooked kernel time, per request")
	o.add("exec.allocs", "count", mean(p.allocs), "MemStats mallocs per guarded run")
	o.add("exec.alloc_mb", "MB", mean(p.allocMB), "MemStats bytes allocated per guarded run")
	o.add("exec.arena_highwater_mb", "MB", mean(p.arenaMB), "GuardReport.ArenaHighWater per request")
	o.add("frameworks.guarded_run_ms", "ms", mean(p.guardedMS), "per request (direct GuardedRun)")
	o.add("frameworks.report_model_ms", "ms", mean(p.reportMS), "per request (SoD2.Run re-executing the model for the report)")
	o.add("costmodel.modeled_over_measured", "ratio", median(p.modeledOverMeasured), "median Report.LatencyMS / measured guarded ms")
	o.add("trace.overhead_pct", "%", median(p.overheadPct), "median paired (hooked - unhooked) / unhooked request time")
	share := sum(p.reportMS) / (sum(p.guardedMS) + sum(p.reportMS))
	o.printf("  report re-execution share of guarded+report time: %.1f%%", 100*share)
	for _, l := range selfTimeLines(spans) {
		o.printf("%s", l)
	}
}
