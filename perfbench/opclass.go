package main

import (
	"repro/internal/graph"
	"repro/internal/tensor"
)

// Kernel classes the traced run attributes kernel time to. Each names
// the kernels.* per-layer metrics of that class.
const (
	classGemm        = "gemm"
	classConv        = "conv"
	classElementwise = "elementwise"
	classMovement    = "movement"
	classNorm        = "norm"
	classOther       = "other"
)

var kernelClasses = []string{classGemm, classConv, classElementwise, classMovement, classNorm, classOther}

// opClass assigns every operator type the ten evaluation models execute
// to exactly one kernel class. An op type missing here is a test failure
// (TestOpClassCoverage), not a silent "other": a new kernel must be
// classified before its time can be attributed.
//
// "norm" covers the row- and window-reducing kernels (normalizations,
// softmax, reductions, pooling); "other" covers shape queries and the
// control-flow operators, which the executor runs without kernel hooks.
var opClass = map[string]string{
	"MatMul": classGemm,

	"Conv": classConv,

	"Add":     classElementwise,
	"Sub":     classElementwise,
	"Mul":     classElementwise,
	"Relu":    classElementwise,
	"Sigmoid": classElementwise,
	"Gelu":    classElementwise,
	"Silu":    classElementwise,
	"Greater": classElementwise,

	"Concat":    classMovement,
	"Flatten":   classMovement,
	"Gather":    classMovement,
	"Identity":  classMovement,
	"Reshape":   classMovement,
	"Resize":    classMovement,
	"Slice":     classMovement,
	"Squeeze":   classMovement,
	"Transpose": classMovement,
	"Unsqueeze": classMovement,

	"LayerNormalization": classNorm,
	"GroupNormalization": classNorm,
	"Softmax":            classNorm,
	"ReduceMean":         classNorm,
	"ReduceMax":          classNorm,
	"GlobalAveragePool":  classNorm,
	"MaxPool":            classNorm,

	"Shape":   classOther,
	"Range":   classOther,
	"If":      classOther,
	"Switch":  classOther,
	"Combine": classOther,
}

// classOf returns an op type's kernel class; unmapped types fall into
// "other" at run time (the coverage test keeps that set empty).
func classOf(opType string) string {
	if c, ok := opClass[opType]; ok {
		return c
	}
	return classOther
}

// kernelFlops counts the multiply-adds (as 2 FLOPs each) of a GEMM or
// convolution from its shapes: 2 × output elements × reduction length.
// The reduction length is MatMul's shared dimension K, or a
// convolution's Cin/groups × kH × kW read off the weight tensor. Other
// classes report 0. The count is derived from shapes, not measured.
func kernelFlops(n *graph.Node, in, out []*tensor.Tensor) float64 {
	if len(in) < 2 || len(out) == 0 || in[0] == nil || in[1] == nil || out[0] == nil {
		return 0
	}
	outElems := float64(out[0].Len())
	switch n.OpType {
	case "MatMul":
		a := in[0].Shape
		if len(a) == 0 {
			return 0
		}
		return 2 * outElems * float64(a[len(a)-1])
	case "Conv":
		w := in[1].Shape
		if len(w) < 2 || w[0] == 0 {
			return 0
		}
		perOut := int64(1)
		for _, d := range w[1:] {
			perOut *= d
		}
		return 2 * outElems * float64(perOut)
	}
	return 0
}
