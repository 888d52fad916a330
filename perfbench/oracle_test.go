package main

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	sod2 "repro"
	"repro/internal/frameworks"
	"repro/internal/models"
	"repro/internal/server"
	"repro/internal/tensor"
)

func conformer(t *testing.T) *models.Builder {
	t.Helper()
	b, ok := models.Get("Conformer")
	if !ok {
		t.Fatal("no Conformer model")
	}
	return b
}

// perturbed copies outs with the lowest mantissa bit of one element
// flipped.
func perturbed(outs map[string]*tensor.Tensor) map[string]*tensor.Tensor {
	cp := map[string]*tensor.Tensor{}
	flipped := false
	for name, o := range outs {
		c := *o
		c.F = append([]float32(nil), o.F...)
		if !flipped && len(c.F) > 0 {
			c.F[0] = math.Float32frombits(math.Float32bits(c.F[0]) ^ 1)
			flipped = true
		}
		cp[name] = &c
	}
	return cp
}

// TestOracleCountsPerturbedOutput checks a served request against the
// reference (direct and after the HTTP JSON round trip, which must be
// exact), then shows that a single flipped bit is a failed request.
func TestOracleCountsPerturbedOutput(t *testing.T) {
	b := conformer(t)
	c, _, err := sod2.CompileVerified(b)
	if err != nil {
		t.Fatal(err)
	}
	s := &served{b: b, c: c, sess: c.NewSession(sod2.SessionOptions{})}
	d := draw{model: b.Name, size: 40, gate: 0.5, seed: 7}
	good := sessionCall(s, d)
	if good.err != nil {
		t.Fatal(good.err)
	}

	wire := map[string]*server.WireTensor{}
	for name, o := range good.out {
		wire[name] = server.ToWire(o)
	}
	raw, err := json.Marshal(map[string]any{"outputs": wire})
	if err != nil {
		t.Fatal(err)
	}
	overHTTP := &record{d: d}
	if overHTTP.out, err = decodeOutputs(raw); err != nil {
		t.Fatal(err)
	}
	bad := &record{d: d, out: perturbed(good.out)}
	refused := &record{d: d, err: errors.New("status 503: overloaded")}

	recs := []*record{good, overHTTP, bad, refused}
	checkRecords(newOracle([]*models.Builder{b}), recs)
	if good.wrong != nil || overHTTP.wrong != nil {
		t.Fatalf("correct outputs rejected: direct %v, over HTTP %v", good.wrong, overHTTP.wrong)
	}
	if bad.wrong == nil || !strings.Contains(bad.wrong.Error(), "element 0") {
		t.Fatalf("flipped bit not detected: %v", bad.wrong)
	}
	if n := failures(&outcome{}, recs); n != 2 {
		t.Fatalf("failures = %d, want 2 (the perturbed output and the refused request)", n)
	}
}

func TestSameOutputsShapeAndPresence(t *testing.T) {
	a := map[string]*tensor.Tensor{"y": tensor.New(tensor.Float32, 2, 2)}
	if err := sameOutputs(a, map[string]*tensor.Tensor{}); err == nil {
		t.Error("missing output accepted")
	}
	if err := sameOutputs(a, map[string]*tensor.Tensor{"y": tensor.New(tensor.Float32, 4)}); err == nil {
		t.Error("reshaped output accepted")
	}
	if err := sameOutputs(a, map[string]*tensor.Tensor{"y": tensor.New(tensor.Float32, 2, 2)}); err != nil {
		t.Errorf("equal outputs rejected: %v", err)
	}
}

// TestBootGates: a warm boot that fell back to a cold compile, or that
// ran a plan search, fails; so does a warm smoke output that differs
// from the round's cold compile by one bit.
func TestBootGates(t *testing.T) {
	if err := warmGate(sod2.BootInfo{Warm: true}, 0); err != nil {
		t.Errorf("clean warm boot rejected: %v", err)
	}
	if warmGate(sod2.BootInfo{Warm: false}, 0) == nil {
		t.Error("cold fallback accepted")
	}
	if warmGate(sod2.BootInfo{Warm: true}, 1) == nil {
		t.Error("warm boot with a plan search accepted")
	}

	b := conformer(t)
	fw, _, err := frameworks.CompileVerified(b)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := sod2.CompileVerified(b)
	if err != nil {
		t.Fatal(err)
	}
	s := &served{b: b, c: c, sess: c.NewSession(sod2.SessionOptions{}), fw: fw}
	d := draw{model: b.Name, size: b.MinSize, gate: 0.3, seed: 11}
	good := sessionCall(s, d)
	if good.err != nil {
		t.Fatal(good.err)
	}
	bad := &record{d: d, out: perturbed(good.out)}
	r := &bootRound{warm: map[string]*served{b.Name: s}, recs: []*record{good, bad}}
	checkBoot(newOracle([]*models.Builder{b}), r)
	if good.wrong != nil {
		t.Fatalf("matching smoke output rejected: %v", good.wrong)
	}
	if bad.wrong == nil || !strings.Contains(bad.wrong.Error(), "differs from cold compile") {
		t.Fatalf("perturbed smoke output not caught by the cold-compile gate: %v", bad.wrong)
	}
}
