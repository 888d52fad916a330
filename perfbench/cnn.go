package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	sod2 "repro"
	"repro/internal/models"
	"repro/internal/tensor"
)

// cnn-dynamic: one closed-loop client calling Session.InferConcurrent
// on the six image models. Conv, im2col and GEMM dominate; gates change
// the work done by up to 6x and sizes change the pixel count by 2x, so
// no two requests cost the same. The workload exercises the kernels and
// the report's second execution of the model, and barely touches the
// server, admission or caches (every request lands in the proven region).
var cnnModels = []string{"SkipNet", "DGNet", "ConvNet-AIG", "RaNet", "BlockDrop", "YOLO-V6"}

const (
	// cnnAreaSpread is the spread of per-request pixel work: sizes run
	// from each model's minimum side to the first grid size whose area
	// is cnnAreaSpread× the minimum's (224 → 320). The proven ranges
	// reach 640, whose requests take seconds; at a 2x side spread (4x
	// work) a run completes too few requests for a p90 with ten samples
	// beyond it, and its tail moved by more than the metric's bound
	// between seeds.
	cnnAreaSpread = 2
	// cnnLimitMS is the latency limit goodput_rps counts against, twice
	// the slowest request the workload draws on an idle host.
	cnnLimitMS = 1500
	// cnnColdReps and cnnWarmReps are how many cold compiles and warm
	// boots of the six models each of the two boot clusters times
	// (about 1.2 s and 0.6 s).
	cnnColdReps = 2
	cnnWarmReps = 5
)

// cnnTop is the largest side cnn-dynamic draws for b.
func cnnTop(b *models.Builder) int64 {
	step := b.SizeStep
	if step <= 0 {
		step = 1
	}
	grow := int64(math.Ceil(float64(b.MinSize) * (math.Sqrt(cnnAreaSpread) - 1)))
	return b.MinSize + (grow+step-1)/step*step
}

// cnnStrata is the number of size and gate strata each model cycles
// through: four requests of a model cover its size range and the gate
// range once each.
const cnnStrata = 4

// cnnDraw maps stratified quantiles to a request: sizes cover
// [min, cnnTop] on the model's size grid, gates are uniform on [0,1].
func cnnDraw(b *models.Builder, uSize, uGate float64, seed uint64) draw {
	return draw{model: b.Name, size: alignedSize(b, b.MinSize, cnnTop(b), uSize),
		gate: float32(uGate), seed: seed}
}

// setupSessions performs the run's set-up setupReps times — cold
// CompileVerified of every model and a session each — and keeps the
// last. It reports setup_s (the first repetition counts from process
// start), then sends one untimed warm-up request per model so that
// lazily filled pools do not land in the first samples.
func setupSessions(env *runEnv, o *outcome, bs []*models.Builder, opts sod2.SessionOptions) (map[string]*served, error) {
	var setupS []float64
	var fleet map[string]*served
	for rep := 0; rep < setupReps; rep++ {
		t0 := env.setupStart(rep)
		f, err := compileServed(bs, opts, env.traced)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		fleet = f
	}
	o.add("setup_s", "s", median(setupS), "median of %d set-ups (compile %d models, open sessions)", setupReps, len(bs))
	for _, b := range bs {
		if r := sessionCall(fleet[b.Name], warmUpDraw(b)); r.err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", b.Name, r.err)
		}
	}
	return fleet, nil
}

// warmUpDraw is the untimed request that precedes a model's measured ones.
func warmUpDraw(b *models.Builder) draw {
	return draw{model: b.Name, size: b.MinSize, gate: 0.5, seed: 1}
}

// sessionCall generates a draw's inputs, then runs and times one
// request through the session.
func sessionCall(s *served, d draw) *record { return callSession(s, d, d.inputs(s.b)) }

func callSession(s *served, d draw, in map[string]*tensor.Tensor) *record {
	t := time.Now()
	out, rep, err := s.sess.InferConcurrent(in)
	return &record{d: d, latMS: msSince(t), out: out, err: err, dynamic: rep.FallbackTier != sod2.TierPlanned}
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// closedLoop issues requests back to back until window has passed.
func closedLoop(fleet map[string]*served, next func() draw, window time.Duration) ([]*record, time.Duration) {
	var recs []*record
	start := time.Now()
	for time.Since(start) < window {
		d := next()
		recs = append(recs, sessionCall(fleet[d.model], d))
	}
	return recs, time.Since(start)
}

func runCNN(env *runEnv) (*outcome, error) {
	bs, err := builders(cnnModels)
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	var tr *tracer
	opts := sod2.SessionOptions{}
	if env.traced {
		tr = newTracer()
		opts.Hooks = tr.hooks()
	}
	fleet, err := setupSessions(env, o, bs, opts)
	if err != nil {
		return nil, err
	}
	orc := newOracle(bs)
	st := newRotation(env.seed, bs, cnnStrata, cnnDraw)
	o.printf("cnn-dynamic: closed loop, 1 client, Session.InferConcurrent; %d models, sizes [min, min x %.2f] (%dx the pixels), gates U[0,1]",
		len(bs), float64(cnnTop(bs[0]))/float64(bs[0].MinSize), cnnAreaSpread)

	if env.traced {
		return o, tracedSessions(env, o, tr, fleet, orc, st, bs)
	}

	boots, err := newBootTimer(env, bs, cnnColdReps, cnnWarmReps)
	if err != nil {
		return nil, err
	}
	defer boots.close()
	if err := boots.cluster(); err != nil {
		return nil, err
	}
	recs, wall := closedLoop(fleet, st.next, env.window)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := boots.cluster(); err != nil {
		return nil, err
	}
	checkRecords(orc, recs)
	var lat []float64
	good := 0
	for _, r := range recs {
		lat = append(lat, r.latMS)
		if !r.failed() && r.latMS <= cnnLimitMS {
			good++
		}
	}
	addLatency(o, lat, "request start")
	perModel(o, recs, cnnModels)
	o.add("throughput_rps", "req/s", float64(len(recs))/wall.Seconds(), "%d requests in %.1f s", len(recs), wall.Seconds())
	o.add("goodput_rps", "req/s", float64(good)/wall.Seconds(), "correct and <= %d ms", cnnLimitMS)
	o.add("peak_rss_mb", "MB", rss, "VmHWM at the end of the measured window")
	bootN, bootFailed := boots.report(o)
	o.attempted = len(recs) + bootN
	o.failed = failures(o, recs) + bootFailed
	return o, nil
}

// tracedSessions is the traced run of a session-driven workload. Phase
// one (a third of the window) replays the workload untraced and reads
// the counters; phase two issues requests one at a time, each four ways
// on the same inputs: the session with kernel hooks recording (the
// "request" span), the session with hooks idle (the overhead baseline,
// in alternating order), then GuardedRun and the report's SoD2.Run on
// the frameworks-level twin.
func tracedSessions(env *runEnv, o *outcome, tr *tracer, fleet map[string]*served,
	orc *oracle, st *rotation, bs []*models.Builder) error {
	before := readCounters(fleet)
	recs, _ := closedLoop(fleet, st.next, env.window/3)
	after := readCounters(fleet)
	dynamic := 0
	for _, r := range recs {
		if r.dynamic {
			dynamic++
		}
	}
	addCounterLayers(o, before, after, len(recs), dynamic)

	p := &probes{}
	start := time.Now()
	for i := 0; time.Since(start) < env.window-env.window/3; i++ {
		d := st.next()
		s := fleet[d.model]
		traced, plain := tracedPair(tr, s, d, i)
		recs = append(recs, traced, plain)
		p.overheadPct = append(p.overheadPct, 100*(traced.latMS-plain.latMS)/plain.latMS)
		if err := p.direct(tr, i, s.fw, d.inputs(s.b)); err != nil {
			return fmt.Errorf("%s: %w", d.model, err)
		}
	}
	checkRecords(orc, recs)
	o.attempted = len(recs)
	o.failed = failures(o, recs)
	if err := attributeCompile(env, o, bs); err != nil {
		return err
	}
	addTraceLayers(o, tr.snapshot(), "request", p)
	return tr.write(filepath.Join(env.workdir, "traces", fmt.Sprintf("cnn-dynamic-seed%d.jsonl", env.seed)))
}

// tracedPair runs request i through the session twice on fresh copies of
// its inputs: once with the kernel hooks recording (the "request" span)
// and once with them idle, alternating which goes first.
func tracedPair(tr *tracer, s *served, d draw, i int) (traced, plain *record) {
	runTraced := func() {
		in := d.inputs(s.b)
		tr.enabled.Store(true)
		tr.timed("request", 0, i, func() { traced = callSession(s, d, in) })
		tr.enabled.Store(false)
	}
	runPlain := func() {
		in := d.inputs(s.b)
		tr.timed("request.unhooked", 0, i, func() { plain = callSession(s, d, in) })
	}
	if i%2 == 0 {
		runTraced()
		runPlain()
	} else {
		runPlain()
		runTraced()
	}
	return traced, plain
}
