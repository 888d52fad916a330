package main

import (
	"fmt"
	"math"
	"sort"
	"sync"

	sod2 "repro"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/tensor"
)

// oracle is the independent correctness reference: sod2.RunGraph over a
// freshly built, uncompiled model graph — no folding, specialization,
// plan, arena, guard or server. Its outputs are bit-identical to planned
// inference on every evaluation model, so any difference is a defect.
type oracle struct {
	mu     sync.Mutex
	graphs map[string][]*graph.Graph // idle graphs per model, one per concurrent checker
	byName map[string]*models.Builder
}

func newOracle(bs []*models.Builder) *oracle {
	o := &oracle{graphs: map[string][]*graph.Graph{}, byName: map[string]*models.Builder{}}
	for _, b := range bs {
		o.byName[b.Name] = b
	}
	return o
}

// prebuild builds n reference graphs per model up front (set-up work).
func (o *oracle) prebuild(n int) {
	for name, b := range o.byName {
		for i := 0; i < n; i++ {
			o.graphs[name] = append(o.graphs[name], b.Build())
		}
	}
}

// reference runs the reference executor. Graphs are leased so that
// concurrent checkers never share one.
func (o *oracle) reference(model string, inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	o.mu.Lock()
	var g *graph.Graph
	if free := o.graphs[model]; len(free) > 0 {
		g, o.graphs[model] = free[len(free)-1], free[:len(free)-1]
	}
	b := o.byName[model]
	o.mu.Unlock()
	if b == nil {
		return nil, fmt.Errorf("oracle: unknown model %q", model)
	}
	if g == nil {
		g = b.Build()
	}
	out, err := sod2.RunGraph(g, inputs)
	o.mu.Lock()
	o.graphs[model] = append(o.graphs[model], g)
	o.mu.Unlock()
	return out, err
}

// check compares got against the reference for the same inputs.
func (o *oracle) check(model string, inputs, got map[string]*tensor.Tensor) error {
	want, err := o.reference(model, inputs)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	return sameOutputs(want, got)
}

// sameOutputs reports the first difference between two output sets:
// a missing or extra output, a dtype or shape mismatch, or any element
// whose bits differ.
func sameOutputs(want, got map[string]*tensor.Tensor) error {
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(got) != len(want) {
		return fmt.Errorf("got %d outputs, want %d", len(got), len(want))
	}
	for _, name := range names {
		w, g := want[name], got[name]
		if g == nil {
			return fmt.Errorf("output %q missing", name)
		}
		if w.DType != g.DType {
			return fmt.Errorf("output %q: dtype %v, want %v", name, g.DType, w.DType)
		}
		if fmt.Sprint(w.Shape) != fmt.Sprint(g.Shape) {
			return fmt.Errorf("output %q: shape %v, want %v", name, g.Shape, w.Shape)
		}
		if len(w.F) != len(g.F) || len(w.I) != len(g.I) || len(w.B) != len(g.B) {
			return fmt.Errorf("output %q: payload length differs", name)
		}
		for i := range w.F {
			if math.Float32bits(w.F[i]) != math.Float32bits(g.F[i]) {
				return fmt.Errorf("output %q: element %d is %v, want %v", name, i, g.F[i], w.F[i])
			}
		}
		for i := range w.I {
			if w.I[i] != g.I[i] {
				return fmt.Errorf("output %q: element %d is %d, want %d", name, i, g.I[i], w.I[i])
			}
		}
		for i := range w.B {
			if w.B[i] != g.B[i] {
				return fmt.Errorf("output %q: element %d is %v, want %v", name, i, g.B[i], w.B[i])
			}
		}
	}
	return nil
}
