package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// span is one timed interval of the traced run: a call into a layer's
// public entry point, or one kernel observed through exec.Hooks.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Req    int     `json:"req"`    // request index; -1 outside requests
	Name   string  `json:"name"`
	Start  int64   `json:"start_ns"` // since the tracer was created
	End    int64   `json:"end_ns"`
	Flops  float64 `json:"flops,omitempty"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory and writes them out when the run ends.
//
// Kernel spans come from PreKernel/PostKernel hooks installed through
// SessionOptions.Hooks. The traced pass issues one request at a time and
// the executor runs one kernel at a time per request, so one open-kernel
// slot pairs every PreKernel with its PostKernel unambiguously. The
// hooks record only while enabled; a disabled hook costs one atomic
// load per kernel.
type tracer struct {
	t0 time.Time

	enabled atomic.Bool

	mu     sync.Mutex
	spans  []span
	parent int // span kernel spans attach to
	req    int
	kNode  *graph.Node
	kIn    []*tensor.Tensor
	kStart time.Time
}

func newTracer() *tracer { return &tracer{t0: time.Now(), req: -1} }

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// timed runs fn as a span and returns its id and duration. While fn
// runs, kernel spans (when enabled) attach to it.
func (t *tracer) timed(name string, parent, req int, fn func()) (int, time.Duration) {
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name})
	prevParent, prevReq := t.parent, t.req
	t.parent, t.req = id, req
	t.mu.Unlock()

	start := time.Now()
	fn()
	end := time.Now()

	t.mu.Lock()
	t.spans[id-1].Start, t.spans[id-1].End = t.since(start), t.since(end)
	t.parent, t.req = prevParent, prevReq
	t.mu.Unlock()
	return id, end.Sub(start)
}

// hooks returns the executor hooks that turn kernels into spans.
func (t *tracer) hooks() *exec.Hooks {
	return &exec.Hooks{
		PreKernel: func(n *graph.Node, in []*tensor.Tensor) error {
			if !t.enabled.Load() {
				return nil
			}
			t.mu.Lock()
			t.kNode, t.kIn, t.kStart = n, in, time.Now()
			t.mu.Unlock()
			return nil
		},
		PostKernel: func(n *graph.Node, out []*tensor.Tensor) error {
			if !t.enabled.Load() {
				return nil
			}
			end := time.Now()
			t.mu.Lock()
			defer t.mu.Unlock()
			if t.kNode != n {
				return nil // enabled mid-kernel: no matching PreKernel
			}
			id := len(t.spans) + 1
			t.spans = append(t.spans, span{ID: id, Parent: t.parent, Req: t.req,
				Name:  "kernel." + classOf(n.OpType),
				Start: t.since(t.kStart), End: t.since(end),
				Flops: kernelFlops(n, t.kIn, out)})
			t.kNode, t.kIn = nil, nil
			return nil
		},
	}
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums, per span name, each span's duration minus the part
// its children cover (children of one span never overlap: the traced
// pass is sequential).
func selfTimes(spans []span) map[string]float64 {
	child := map[int]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]float64{}
	for _, s := range spans {
		self[s.Name] += float64(s.End-s.Start-child[s.ID]) / 1e6
	}
	return self
}

// selfTimeLines formats the self time of every span name, largest
// first, as a share of all root spans.
func selfTimeLines(spans []span) []string {
	self := selfTimes(spans)
	var total float64
	for _, s := range spans {
		if s.Parent == 0 {
			total += s.ms()
		}
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	lines := []string{"  span self time (ms, share of traced time):"}
	for _, n := range names {
		lines = append(lines, fmt.Sprintf("    %-28s %12.1f  %5.1f%%", n, self[n], 100*self[n]/total))
	}
	return lines
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
