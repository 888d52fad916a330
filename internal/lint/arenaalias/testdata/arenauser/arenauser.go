// Package arenauser is the arenaalias checker's fixture: each function
// is a distilled good or bad arena-lifetime pattern. It lives under
// testdata/ so `go vet ./...` never sees it; the analyzer's integration
// test vets it explicitly and asserts exactly the leak* functions are
// flagged.
package arenauser

import (
	"repro/internal/exec"
	"repro/internal/tensor"
)

type holder struct {
	out map[string]*tensor.Tensor
}

// leakReturn releases the arena while returning outputs that still alias
// its backing buffer, pinning all of it: flagged.
func leakReturn(a *exec.Arena, res *exec.Result) map[string]*tensor.Tensor {
	defer a.Release()
	return res.Outputs
}

// leakStore parks aliased outputs in a field before releasing: flagged.
func leakStore(h *holder, a *exec.Arena, res *exec.Result) {
	h.out = res.Outputs
	a.Release()
}

// okDetach detaches before releasing, so the returned outputs own their
// storage: clean.
func okDetach(a *exec.Arena, res *exec.Result) map[string]*tensor.Tensor {
	a.Detach(res.Outputs)
	a.Release()
	return res.Outputs
}

// okDeferredDetach cleans up in a deferred closure — still the same
// function for the checker: clean.
func okDeferredDetach(a *exec.Arena, res *exec.Result) map[string]*tensor.Tensor {
	defer func() {
		a.Detach(res.Outputs)
		a.Release()
	}()
	return res.Outputs
}

// okNoRelease never ends the arena's lifetime — the caller owns it and
// the aliasing — so there is nothing to flag: clean.
func okNoRelease(a *exec.Arena, res *exec.Result) map[string]*tensor.Tensor {
	return res.Outputs
}

// okNilStore assigns nil into a tensor-typed slot — no alias: clean.
func okNilStore(h *holder, a *exec.Arena) {
	h.out = nil
	a.Release()
}

var (
	_ = leakReturn
	_ = leakStore
	_ = okDetach
	_ = okDeferredDetach
	_ = okNoRelease
	_ = okNilStore
)
