package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	sod2 "repro"
	"repro/internal/models"
	"repro/internal/server"
	"repro/internal/tensor"
)

// text-http: an open loop of seeded Poisson arrivals at one fixed rate,
// sent over at most two loopback connections to an in-process
// internal/server configured like `sod2 serve` (batch window 2 ms, max
// batch 8). Requests are short and allocation-heavy, and the JSON path
// adds several milliseconds to each, so the workload exercises the
// server, resilience, the frameworks caches, exec and tensor allocation,
// and the GC. Large image bodies (SegmentAnything) sit beside small text
// bodies. A fifth of the text requests use lengths below the proven
// 32-token floor: those are served on the dynamic tier through the
// shape-keyed plan cache; the rest take the region fast path and
// family-key batching.
var textModels = []string{"CodeBERT", "Conformer", "SegmentAnything"}

const (
	// textRate is the fixed arrival rate: the server is about a third
	// busy on the 2-CPU host. Queueing multiplies any slowdown of the
	// host into latency, and more so the busier the server: between ten
	// runs at 16 req/s (a little under half busy) latency moved about
	// twice as much as the host's speed did, at 12 req/s about as much.
	textRate = 12.0
	// textLimitMS is the latency limit goodput_rps counts against.
	textLimitMS = 1000
	// textConns bounds the client's connections (one per host CPU).
	textConns = 2
	// textBootReps is how many cold compiles and warm boots of the three
	// models each of the two boot clusters times. One compile of the set
	// takes under 0.1 s, so a median of few is moved by any blip of the
	// host; 12 take about 1 s.
	textBootReps = 12
)

// textShort are the below-floor sequence lengths; textLong the in-region
// range; samSizes the SegmentAnything image sides.
var (
	textShort                    = []int64{8, 12, 16, 24}
	textLongLo, textLongHi int64 = 32, 128
	samLo, samHi           int64 = 64, 96
)

// textBlock is 25 slots: 14 CodeBERT (3 below the floor), 6 Conformer
// (1 below the floor) and 5 SegmentAnything. The weights put the median
// request inside the in-region CodeBERT lengths rather than in the gap
// between the cheap Conformer requests and the rest, where it would
// jump between the two clusters from run to run.
func textBlock(bs map[string]*models.Builder) func(rng *rand.Rand) []draw {
	return func(rng *rand.Rand) []draw {
		var out []draw
		for _, m := range []struct {
			name         string
			total, short int
		}{{"CodeBERT", 14, 3}, {"Conformer", 6, 1}} {
			b := bs[m.name]
			u := lhs(rng, m.total-m.short)
			for j := 0; j < m.total; j++ {
				d := draw{model: m.name, seed: rng.Uint64()}
				if j < m.short {
					d.size = textShort[rng.IntN(len(textShort))]
				} else {
					d.size = alignedSize(b, textLongLo, textLongHi, u[j-m.short])
				}
				out = append(out, d)
			}
		}
		sam := bs["SegmentAnything"]
		for _, u := range lhs(rng, 5) {
			out = append(out, draw{model: sam.Name, size: alignedSize(sam, samLo, samHi, u), seed: rng.Uint64()})
		}
		return out
	}
}

// textServer is one booted HTTP front-end.
type textServer struct {
	srv   *server.Server
	hs    *http.Server
	url   string
	fleet map[string]*served
	done  chan error
}

// startText compiles the models, opens sessions configured like
// `sod2 serve`, and starts the server on a loopback port.
func startText(bs []*models.Builder, opts sod2.SessionOptions, twin bool) (*textServer, error) {
	opts.Retry = sod2.RetryPolicy{MaxAttempts: 2}
	fleet, err := compileServed(bs, opts, twin)
	if err != nil {
		return nil, err
	}
	var ms []server.Model
	for _, b := range bs {
		ms = append(ms, server.Model{Name: b.Name, Compiled: fleet[b.Name].c, Session: fleet[b.Name].sess})
	}
	srv, err := server.New(ms, server.Config{Batch: server.BatchConfig{Window: 2 * time.Millisecond, MaxBatch: 8}})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ts := &textServer{srv: srv, hs: srv.HTTPServer(ln.Addr().String()), url: "http://" + ln.Addr().String(),
		fleet: fleet, done: make(chan error, 1)}
	go func() { ts.done <- ts.hs.Serve(ln) }()
	return ts, nil
}

// stop drains the server the way `sod2 serve` does on SIGTERM and waits
// for its serve loop to return.
func (ts *textServer) stop() error {
	ts.srv.StartDraining()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	herr := ts.hs.Shutdown(ctx)
	derr := ts.srv.Drain(ctx)
	if err := <-ts.done; err != http.ErrServerClosed {
		return fmt.Errorf("serve: %w", err)
	}
	if herr != nil {
		return herr
	}
	return derr
}

// httpResult is one HTTP exchange.
type httpResult struct {
	err         error
	batch       int
	dynamic     bool
	reqB, respB int
}

// post sends one encoded request and decodes the response (outputs are
// decoded after the body has been read, outside any latency a caller
// times around the read).
func post(client *http.Client, url string, body []byte) (res httpResult, raw []byte) {
	res.reqB = len(body)
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		res.err = err
		return res, nil
	}
	raw, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	res.respB = len(raw)
	if err != nil {
		res.err = err
		return res, nil
	}
	if resp.StatusCode != http.StatusOK {
		res.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		return res, nil
	}
	res.batch, _ = strconv.Atoi(resp.Header.Get(server.HeaderBatch))
	res.dynamic = resp.Header.Get(server.HeaderTier) != sod2.TierPlanned.String()
	return res, raw
}

// decodeOutputs parses an infer response body into tensors.
func decodeOutputs(raw []byte) (map[string]*tensor.Tensor, error) {
	var body struct {
		Outputs map[string]*server.WireTensor `json:"outputs"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	out := map[string]*tensor.Tensor{}
	for name, w := range body.Outputs {
		t, err := w.Tensor()
		if err != nil {
			return nil, fmt.Errorf("output %q: %w", name, err)
		}
		out[name] = t
	}
	return out, nil
}

func encodeBody(b *models.Builder, d draw) ([]byte, error) {
	return json.Marshal(server.EncodeInputs(d.inputs(b)))
}

func inferURL(base, model string) string { return base + "/v1/models/" + model + "/infer" }

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: textConns, MaxIdleConnsPerHost: textConns,
		DisableCompression: true}}
}

// textPhase is the outcome of one open-loop pass.
type textPhase struct {
	recs          []*record
	times         loopTimes
	batches       []float64
	reqKB, respKB []float64
}

// runOpenLoop pre-encodes n requests (fresh tensors each), then sends
// them on Poisson arrivals over window.
func runOpenLoop(ts *textServer, client *http.Client, st *stream, rng *rand.Rand, window time.Duration) (*textPhase, error) {
	n := int(textRate * window.Seconds())
	draws := make([]draw, n)
	bodies := make([][]byte, n)
	for i := range draws {
		draws[i] = st.next()
		var err error
		if bodies[i], err = encodeBody(ts.fleet[draws[i].model].b, draws[i]); err != nil {
			return nil, err
		}
	}
	results := make([]httpResult, n)
	raws := make([][]byte, n)
	times := openLoop(arrivals(rng, n, window), textConns, func(i int) {
		results[i], raws[i] = post(client, inferURL(ts.url, draws[i].model), bodies[i])
	})
	ph := &textPhase{times: times}
	for i, res := range results {
		r := &record{d: draws[i], latMS: float64(times.lat[i].Nanoseconds()) / 1e6, err: res.err, dynamic: res.dynamic}
		if r.err == nil {
			r.out, r.err = decodeOutputs(raws[i])
			ph.batches = append(ph.batches, float64(res.batch))
		}
		ph.reqKB = append(ph.reqKB, float64(res.reqB)/1024)
		ph.respKB = append(ph.respKB, float64(res.respB)/1024)
		ph.recs = append(ph.recs, r)
	}
	return ph, nil
}

func lagP90(t loopTimes) (float64, int) {
	var lag []float64
	for _, l := range t.lag {
		lag = append(lag, float64(l.Nanoseconds())/1e6)
	}
	v, _ := percentile(sortedCopy(lag), 90)
	return v, len(lag)
}

func runText(env *runEnv) (*outcome, error) {
	bs, err := builders(textModels)
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
	var setupS []float64
	var ts *textServer
	for rep := 0; rep < shortSetupReps; rep++ {
		t0 := env.setupStart(rep)
		s, err := startText(bs, opts, env.traced)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if rep < shortSetupReps-1 {
			if err := s.stop(); err != nil {
				return nil, err
			}
		}
		ts = s
	}
	o.add("setup_s", "s", median(setupS), "median of %d set-ups (compile %d models, sessions, server start)", shortSetupReps, len(bs))
	err = serveText(env, o, tr, ts, bs)
	if serr := ts.stop(); err == nil && serr != nil {
		err = fmt.Errorf("stop server: %w", serr)
	}
	if err != nil {
		return nil, err
	}
	return o, nil
}

// serveText drives the booted server: warm-up, then the measured open
// loop (or the traced run), the reference checks and the warm boots.
func serveText(env *runEnv, o *outcome, tr *tracer, ts *textServer, bs []*models.Builder) error {
	client := newClient()
	defer client.CloseIdleConnections()
	for _, b := range bs {
		body, err := encodeBody(b, warmUpDraw(b))
		if err != nil {
			return err
		}
		if res, _ := post(client, inferURL(ts.url, b.Name), body); res.err != nil {
			return fmt.Errorf("warm-up %s: %w", b.Name, res.err)
		}
	}
	orc := newOracle(bs)
	names := byName(bs)
	st := newStream(env.seed, textBlock(names))
	rng := seededRand(env.seed ^ 0xa771_7a15)
	o.printf("text-http: open loop, Poisson arrivals at %.0f req/s over %d loopback connections; batch window 2 ms, max batch 8", textRate, textConns)

	if env.traced {
		return tracedText(env, o, tr, ts, client, orc, st, rng, bs)
	}

	boots, err := newBootTimer(env, bs, textBootReps, textBootReps)
	if err != nil {
		return err
	}
	defer boots.close()
	if err := boots.cluster(); err != nil {
		return err
	}
	ph, err := runOpenLoop(ts, client, st, rng, env.window)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	if err := boots.cluster(); err != nil {
		return err
	}
	checkRecords(orc, ph.recs)
	var lat []float64
	good := 0
	for _, r := range ph.recs {
		lat = append(lat, r.latMS)
		if !r.failed() && r.latMS <= textLimitMS {
			good++
		}
	}
	span := ph.times.end.Sub(ph.times.start).Seconds()
	addLatency(o, lat, "scheduled send time")
	perModel(o, ph.recs, textModels)
	o.add("throughput_rps", "req/s", float64(len(ph.recs))/span, "%d requests completed in %.1f s", len(ph.recs), span)
	o.add("goodput_rps", "req/s", float64(good)/span, "correct and <= %d ms from the scheduled send", textLimitMS)
	o.add("peak_rss_mb", "MB", rss, "VmHWM at the end of the measured window")
	lag, n := lagP90(ph.times)
	o.printf("  generator lag p90 %.3f ms over %d sends; mean batch %.2f members", lag, n, mean(ph.batches))
	bootN, bootFailed := boots.report(o)
	o.attempted = len(ph.recs) + bootN
	o.failed = failures(o, ph.recs) + bootFailed
	return nil
}

// tracedText is text-http's traced run. Phase one replays the open loop
// for a third of the window and reads the counters; phase two sends one
// request at a time, four ways on the same draw: over HTTP with kernel
// hooks recording (the "request" span), straight into the same session
// with hooks recording ("session.direct"; the HTTP round trip minus it is
// the server's overhead), straight into the session with hooks idle (the
// tracing-overhead baseline), then the frameworks-level probes.
func tracedText(env *runEnv, o *outcome, tr *tracer, ts *textServer, client *http.Client,
	orc *oracle, st *stream, rng *rand.Rand, bs []*models.Builder) error {
	before := readCounters(ts.fleet)
	ph, err := runOpenLoop(ts, client, st, rng, env.window/3)
	if err != nil {
		return err
	}
	after := readCounters(ts.fleet)
	dynamic := 0
	for _, r := range ph.recs {
		if r.dynamic {
			dynamic++
		}
	}
	addCounterLayers(o, before, after, len(ph.recs), dynamic)
	lag, nLag := lagP90(ph.times)
	o.add("server.generator_lag_ms_p90", "ms", lag, "over %d scheduled sends", nLag)
	o.add("server.batch_members_avg", "count", mean(ph.batches), "X-Sod2-Batch over %d responses", len(ph.batches))
	o.add("server.req_kb", "KB", mean(ph.reqKB), "request body per request")
	o.add("server.resp_kb", "KB", mean(ph.respKB), "response body per request")
	recs := ph.recs

	p := &probes{}
	var serverMS []float64
	start := time.Now()
	for i := 0; time.Since(start) < env.window-env.window/3; i++ {
		d := st.next()
		s := ts.fleet[d.model]
		body, err := encodeBody(s.b, d)
		if err != nil {
			return err
		}
		var res httpResult
		var raw []byte
		tr.enabled.Store(true)
		_, httpDur := tr.timed("request", 0, i, func() { res, raw = post(client, inferURL(ts.url, d.model), body) })
		tr.enabled.Store(false)
		r := &record{d: d, latMS: float64(httpDur.Nanoseconds()) / 1e6, err: res.err}
		if r.err == nil {
			r.out, r.err = decodeOutputs(raw)
		}
		in := d.inputs(s.b)
		tr.enabled.Store(true)
		var direct *record
		tr.timed("session.direct", 0, i, func() { direct = callSession(s, d, in) })
		tr.enabled.Store(false)
		in = d.inputs(s.b)
		var plain *record
		tr.timed("request.unhooked", 0, i, func() { plain = callSession(s, d, in) })
		recs = append(recs, r, direct, plain)
		serverMS = append(serverMS, r.latMS-direct.latMS)
		p.overheadPct = append(p.overheadPct, 100*(direct.latMS-plain.latMS)/plain.latMS)
		if err := p.direct(tr, i, s.fw, d.inputs(s.b)); err != nil {
			return fmt.Errorf("%s: %w", d.model, err)
		}
	}
	o.add("server.overhead_ms", "ms", mean(serverMS), "HTTP round trip minus direct Session time, same draw, %d requests", len(serverMS))
	checkRecords(orc, recs)
	o.attempted = len(recs)
	o.failed = failures(o, recs)
	if err := attributeCompile(env, o, bs); err != nil {
		return err
	}
	addTraceLayers(o, tr.snapshot(), "request", p)
	return tr.write(filepath.Join(env.workdir, "traces", fmt.Sprintf("text-http-seed%d.jsonl", env.seed)))
}
