// Package arenaalias is a go/analysis-style checker for the repository's
// arena-aliasing contract: tensors produced by an arena-backed execution
// alias the arena's backing buffer, a single allocation sized for the
// model's whole planned footprint. Once exec.Arena.Release ends the
// arena's lifetime, any such tensor that escapes the function —
// returned, stored into fields, maps or slices, or sent on a channel —
// keeps the whole buffer alive for as long as the tensor lives. Any
// function that releases an arena while letting tensors escape must
// therefore call Arena.Detach in the same function first, which clones
// the aliased outputs so they own storage of their own size.
//
// The checker is intentionally stdlib-only (go/ast + go/types): the
// build environment has no golang.org/x/tools, so cmd/arenaalias
// implements the `go vet -vettool` protocol by hand and calls Check.
//
// A function is flagged when all three hold:
//
//  1. it calls (*exec.Arena).Release — the point where the arena's
//     lifetime ends;
//  2. a tensor-carrying value escapes the function (returned, stored
//     through a selector or index expression, or sent on a channel);
//  3. no (*exec.Arena).Detach call appears anywhere in the function,
//     including nested function literals (deferred cleanups count).
//
// Tensor-carrying types are *tensor.Tensor, exec.Result (whose Outputs
// map aliases the arena), and any map/slice/array/channel/struct
// transitively containing one.
package arenaalias

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

const (
	execPath   = "repro/internal/exec"
	tensorPath = "repro/internal/tensor"
)

// Diagnostic is one finding, positioned for file:line:col reporting.
type Diagnostic struct {
	Pos     token.Position
	Message string
}

// Check analyzes one type-checked package and returns its findings.
func Check(fset *token.FileSet, files []*ast.File, info *types.Info) []Diagnostic {
	var diags []Diagnostic
	for _, f := range files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Body != nil {
				diags = append(diags, checkFunc(fset, fn, info)...)
			}
		}
	}
	return diags
}

// checkFunc applies the three-part rule to one function declaration.
// Nested function literals are scanned as part of their enclosing
// declaration: a Detach inside a deferred closure still protects the
// function, and an escape from a closure is attributed to it.
func checkFunc(fset *token.FileSet, fn *ast.FuncDecl, info *types.Info) []Diagnostic {
	var (
		releases   bool
		detaches   bool
		escapePos  []token.Pos
		escapeWhat []string
	)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			switch {
			case isArenaMethod(n, "Release", info):
				releases = true
			case isArenaMethod(n, "Detach", info):
				detaches = true
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if carriesTensor(info.TypeOf(r), nil) && !isNilExpr(r, info) {
					escapePos = append(escapePos, r.Pos())
					escapeWhat = append(escapeWhat, "returns")
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if !isStoreTarget(lhs) || !carriesTensor(info.TypeOf(lhs), nil) {
					continue
				}
				if len(n.Rhs) == len(n.Lhs) && isNilExpr(n.Rhs[i], info) {
					continue
				}
				escapePos = append(escapePos, lhs.Pos())
				escapeWhat = append(escapeWhat, "stores")
			}
		case *ast.SendStmt:
			if carriesTensor(info.TypeOf(n.Value), nil) && !isNilExpr(n.Value, info) {
				escapePos = append(escapePos, n.Value.Pos())
				escapeWhat = append(escapeWhat, "sends")
			}
		}
		return true
	})
	if !releases || detaches || len(escapePos) == 0 {
		return nil
	}
	diags := make([]Diagnostic, len(escapePos))
	for i, pos := range escapePos {
		diags[i] = Diagnostic{
			Pos: fset.Position(pos),
			Message: fmt.Sprintf(
				"%s %s possibly arena-backed tensors but never calls Arena.Detach before Release: they pin the whole arena buffer",
				fn.Name.Name, escapeWhat[i]),
		}
	}
	return diags
}

// isStoreTarget reports whether an assignment LHS writes beyond a plain
// local variable: a field (selector) or a map/slice element (index).
func isStoreTarget(e ast.Expr) bool {
	switch e.(type) {
	case *ast.SelectorExpr, *ast.IndexExpr:
		return true
	}
	return false
}

// isArenaMethod matches a call x.Name(...) where x is exec.Arena or
// *exec.Arena.
func isArenaMethod(call *ast.CallExpr, name string, info *types.Info) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	return isNamed(deref(info.TypeOf(sel.X)), execPath, "Arena")
}

func isNilExpr(e ast.Expr, info *types.Info) bool {
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

func isNamed(t types.Type, path, name string) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == path
}

// carriesTensor reports whether a value of type t can hold (directly or
// transitively) a *tensor.Tensor. seen guards against recursive types.
func carriesTensor(t types.Type, seen map[types.Type]bool) bool {
	if t == nil {
		return false
	}
	if seen == nil {
		seen = map[types.Type]bool{}
	}
	if seen[t] {
		return false
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Pointer:
		return carriesTensor(t.Elem(), seen)
	case *types.Named:
		if isNamed(t, tensorPath, "Tensor") || isNamed(t, execPath, "Result") {
			return true
		}
		return carriesTensor(t.Underlying(), seen)
	case *types.Map:
		return carriesTensor(t.Elem(), seen)
	case *types.Slice:
		return carriesTensor(t.Elem(), seen)
	case *types.Array:
		return carriesTensor(t.Elem(), seen)
	case *types.Chan:
		return carriesTensor(t.Elem(), seen)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if carriesTensor(t.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}
