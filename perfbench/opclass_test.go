package main

import (
	"sort"
	"testing"

	"repro/internal/frameworks"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/tensor"
)

// collectOps adds every op type of g, including If/Loop bodies.
func collectOps(g *graph.Graph, ops map[string]string, model string) {
	for _, n := range g.Nodes {
		ops[n.OpType] = model
		for _, attr := range []string{"then_branch", "else_branch", "body"} {
			if body := n.AttrGraph(attr); body != nil {
				collectOps(body, ops, model)
			}
		}
	}
}

// TestOpClassCoverage fails when any of the ten models — as built and as
// compiled (folded, specialized) — executes an op type with no kernel
// class, so a new op cannot silently land in "other".
func TestOpClassCoverage(t *testing.T) {
	ops := map[string]string{}
	for _, b := range models.All() {
		collectOps(b.Build(), ops, b.Name)
		c, err := frameworks.Compile(b)
		if err != nil {
			t.Fatalf("compile %s: %v", b.Name, err)
		}
		collectOps(c.Graph, ops, b.Name)
		collectOps(c.OrigGraph, ops, b.Name)
	}
	var unmapped []string
	for op, model := range ops {
		if _, ok := opClass[op]; !ok {
			unmapped = append(unmapped, op+" ("+model+")")
		}
	}
	sort.Strings(unmapped)
	for _, u := range unmapped {
		t.Errorf("op type %s has no kernel class in opClass", u)
	}
	known := map[string]bool{}
	for _, c := range kernelClasses {
		known[c] = true
	}
	for op, c := range opClass {
		if !known[c] {
			t.Errorf("op type %s maps to unknown class %q", op, c)
		}
	}
}

func TestKernelFlopsFromShapes(t *testing.T) {
	mm := &graph.Node{OpType: "MatMul"}
	a, b, out := tensor.New(tensor.Float32, 2, 5, 3), tensor.New(tensor.Float32, 3, 4), tensor.New(tensor.Float32, 2, 5, 4)
	if got := kernelFlops(mm, []*tensor.Tensor{a, b}, []*tensor.Tensor{out}); got != 2*40*3 {
		t.Errorf("MatMul flops = %v, want %v", got, 2*40*3)
	}
	conv := &graph.Node{OpType: "Conv"}
	x, w, y := tensor.New(tensor.Float32, 1, 3, 8, 8), tensor.New(tensor.Float32, 16, 3, 3, 3), tensor.New(tensor.Float32, 1, 16, 6, 6)
	if got := kernelFlops(conv, []*tensor.Tensor{x, w}, []*tensor.Tensor{y}); got != 2*576*27 {
		t.Errorf("Conv flops = %v, want %v", got, 2*576*27)
	}
	if got := kernelFlops(&graph.Node{OpType: "Add"}, []*tensor.Tensor{x, x}, []*tensor.Tensor{x}); got != 0 {
		t.Errorf("Add flops = %v, want 0", got)
	}
}
