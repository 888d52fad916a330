package costmodel

import (
	"sort"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/ops"
)

// Makespan list-schedules the given op costs onto `workers` identical
// machines with the LPT (longest processing time first) heuristic and
// returns the resulting schedule length in the same unit as the input.
// The result is never below either classic lower bound: the largest
// single cost (critical path of an antichain) or the mean machine load.
func Makespan(costs []float64, workers int) float64 {
	if len(costs) == 0 {
		return 0
	}
	if workers <= 1 || len(costs) == 1 {
		var sum float64
		for _, c := range costs {
			sum += c
		}
		return sum
	}
	if workers > len(costs) {
		workers = len(costs)
	}
	sorted := append([]float64(nil), costs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	load := make([]float64, workers)
	for _, c := range sorted {
		min := 0
		for m := 1; m < workers; m++ {
			if load[m] < load[min] {
				min = m
			}
		}
		load[min] += c
	}
	var mk float64
	for _, l := range load {
		if l > mk {
			mk = l
		}
	}
	return mk
}

// TraceCostParallel is the wavefront (makespan) variant of TraceCost:
// events whose node belongs to wave w (per waveOf; -1 = not wave-planned,
// e.g. control-flow body ops) contribute to that wave's LPT schedule
// over `workers` machines, everything else stays sequential, and the
// modeled latency is the sum of wave makespans plus the sequential
// remainder. Per-event costs (op cost, efficiency, fused-group dispatch)
// are computed exactly as TraceCost computes them, so SEP can compare
// sequential vs. wavefront orders on equal terms:
// speedup = TraceCost / TraceCostParallel.
func (d Device) TraceCostParallel(tr exec.Trace, opts TraceCostOptions, waveOf func(n *graph.Node) int, workers int) float64 {
	if waveOf == nil || workers <= 1 {
		return d.TraceCost(tr, opts)
	}
	var sequential float64
	// Indexed by wave, so the makespans are summed in wave order and
	// the same trace always prices to the same bits.
	var perWave [][]float64
	seenGroup := map[int]bool{}
	for _, ev := range tr.Events {
		if ev.Skipped {
			continue
		}
		def, ok := ops.Get(ev.OpType)
		var flops, bytes int64
		if ok {
			flops, bytes = def.Cost(ev.Node, ev.InShapes, ev.OutShapes)
		} else {
			flops, bytes = ops.DefaultCost(ev.Node, ev.InShapes, ev.OutShapes)
		}
		if opts.InternalBytes != nil {
			bytes -= opts.InternalBytes(ev)
			if bytes < 0 {
				bytes = 0
			}
		}
		eff := 1.0
		if opts.Eff != nil {
			eff = opts.Eff(ev)
		}
		cost := d.OpCost(flops, bytes, eff)
		// Dispatch: once per fused group, per op otherwise — mirrored
		// from TraceCost so the two models differ only in scheduling.
		dispatch := d.DispatchUS
		if opts.GroupOf != nil {
			if gid := opts.GroupOf(ev.Node); gid >= 0 {
				if seenGroup[gid] {
					dispatch = 0
				} else {
					seenGroup[gid] = true
				}
			}
		}
		cost += dispatch
		if w := waveOf(ev.Node); w >= 0 {
			for len(perWave) <= w {
				perWave = append(perWave, nil)
			}
			perWave[w] = append(perWave[w], cost)
		} else {
			sequential += cost
		}
	}
	total := sequential
	for _, costs := range perWave {
		total += Makespan(costs, workers)
	}
	return total
}
