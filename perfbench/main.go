// Command perfbench is the repository's end-to-end benchmark. One run
// drives one seeded workload against the SoD² runtime for a fixed time,
// checks every output bit for bit against an independent reference, and
// prints its metrics by name and unit; the last line is one JSON object.
//
//	bash perfbench/run.sh --workload cnn-dynamic --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 is the separate
// traced run: it reports per-layer attribution (kernel classes, executor,
// report re-execution, caches, server, Go runtime, compile stages) and
// its own overhead. README.md in this directory describes the workloads
// and which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// metricDef is one metric of BENCHMARK.json. Every run emits exactly
// the end-to-end set, or with --trace 1 the per-layer set, in these
// units (TestMetricsMatchBenchmarkJSON keeps the lists in step).
type metricDef struct{ name, unit string }

var (
	e2eMetrics = []metricDef{
		{"setup_s", "s"}, {"latency_p50_ms", "ms"}, {"latency_p90_ms", "ms"},
		{"throughput_rps", "req/s"}, {"goodput_rps", "req/s"},
		{"cold_compile_s", "s"}, {"warm_boot_s", "s"}, {"peak_rss_mb", "MB"},
	}
	layerMetrics = []metricDef{
		{"kernels.gemm_ms", "ms"}, {"kernels.conv_ms", "ms"}, {"kernels.elementwise_ms", "ms"},
		{"kernels.movement_ms", "ms"}, {"kernels.norm_ms", "ms"}, {"kernels.launches", "count"},
		{"kernels.gemm_gflops", "GFLOP/s"}, {"kernels.conv_gflops", "GFLOP/s"},
		{"exec.self_ms", "ms"}, {"exec.allocs", "count"}, {"exec.alloc_mb", "MB"}, {"exec.arena_highwater_mb", "MB"},
		{"frameworks.guarded_run_ms", "ms"}, {"frameworks.report_model_ms", "ms"},
		{"frameworks.region_hit_frac", "fraction"}, {"frameworks.plan_cache_hit_frac", "fraction"},
		{"frameworks.dynamic_tier_frac", "fraction"}, {"frameworks.trace_memo_hits", "count"},
		{"costmodel.modeled_over_measured", "ratio"},
		{"resilience.shed_frac", "fraction"}, {"session.retries", "count"},
		{"go.gc_cpu_frac", "fraction"}, {"go.gc_cycles", "count"},
		{"rdp.analyze_ms", "ms"}, {"fusion.fuse_ms", "ms"}, {"plan.build_ms", "ms"}, {"plan.pareto_ms", "ms"},
		{"absint.specialize_ms", "ms"}, {"staticverify.verify_ms", "ms"},
		{"frameworks.compile_ms", "ms"}, {"frameworks.compile_other_ms", "ms"},
		{"artifact.save_ms", "ms"}, {"artifact.load_ms", "ms"}, {"frameworks.warm_plan_searches", "count"},
		{"trace.overhead_pct", "%"},
	}
)

// runEnv is what every workload receives.
type runEnv struct {
	seed    uint64
	window  time.Duration // measured time
	traced  bool
	workdir string    // scratch space inside the checkout
	start   time.Time // process start, for the first set-up
}

// metric is one reported value.
type metric struct {
	name, unit string
	value      float64
	note       string
}

// outcome is a finished run.
type outcome struct {
	attempted, failed int
	lines             []string // human-readable detail printed before the metrics
	metrics           []metric
}

func (o *outcome) add(name, unit string, value float64, note string, args ...any) {
	o.metrics = append(o.metrics, metric{name: name, unit: unit, value: value, note: fmt.Sprintf(note, args...)})
}

func (o *outcome) printf(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*runEnv) (*outcome, error){
	"cnn-dynamic":  runCNN,
	"text-http":    runText,
	"compile-boot": runBoot,
}

func main() {
	start := time.Now()
	name := flag.String("workload", "", "cnn-dynamic, text-http or compile-boot")
	seed := flag.Uint64("seed", 1, "seed all inputs are generated from")
	seconds := flag.Float64("seconds", 30, "measured time")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "scratch directory for temporary stores and span dumps")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload cnn-dynamic|text-http|compile-boot --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	dir, err := filepath.Abs(*workdir)
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: workdir: %v\n", err)
		os.Exit(1)
	}
	env := &runEnv{seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1, workdir: dir, start: start}

	fmt.Printf("perfbench: workload %s, seed %d, %v measured, trace %d\n", *name, *seed, env.window, *trace)
	out, err := run(env)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := out.emit(env.traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// emit prints the human-readable report and returns the final JSON line
// carrying exactly the metric set of the run's mode.
func (o *outcome) emit(traced bool) (string, error) {
	want := e2eMetrics
	if traced {
		want = layerMetrics
	}
	for _, l := range o.lines {
		fmt.Println(l)
	}
	byName := map[string]metric{}
	for _, m := range o.metrics {
		byName[m.name] = m
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := map[string]value{}
	var missing []string
	for _, def := range want {
		m, ok := byName[def.name]
		switch {
		case !ok:
			missing = append(missing, def.name)
			continue
		case m.unit != def.unit:
			return "", fmt.Errorf("metric %s measured in %s, declared in %s", def.name, m.unit, def.unit)
		case math.IsNaN(m.value) || math.IsInf(m.value, 0):
			return "", fmt.Errorf("metric %s is not a number (%v)", def.name, m.value)
		}
		fmt.Printf("  %-34s %14.6g %-9s %s\n", m.name, m.value, m.unit, m.note)
		vals[def.name] = value{Value: m.value, Unit: m.unit}
	}
	if len(missing) > 0 {
		return "", fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	// Metrics outside the mode's set are printed for the reader only.
	for _, m := range o.metrics {
		if _, in := vals[m.name]; !in {
			fmt.Printf("  %-34s %14.6g %-9s %s\n", m.name, m.value, m.unit, m.note)
		}
	}
	errRate := 0.0
	if o.attempted > 0 {
		errRate = float64(o.failed) / float64(o.attempted)
	}
	fmt.Printf("  %-34s %14.6g %-9s (%d failed of %d attempted)\n", "error_rate", errRate, "fraction", o.failed, o.attempted)
	if o.attempted < 1 {
		return "", errors.New("no request completed in the measured time")
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, vals})
	return string(b), err
}
