package main

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/models"
)

// stream yields a workload's draws in shuffled blocks. A block fixes
// how many slots each model gets; sizes and gates are Latin-hypercube
// sampled across the block (each of the block's k equal-probability
// strata is drawn exactly once), so every run of a few blocks covers the
// whole size × gate range in the same proportions. Runs with different
// seeds then differ in their exact draws, not in their mix.
type stream struct {
	rng   *rand.Rand
	block func(rng *rand.Rand) []draw
	buf   []draw
}

func newStream(seed uint64, block func(rng *rand.Rand) []draw) *stream {
	return &stream{rng: seededRand(seed), block: block}
}

// seededRand is the generator every workload draws from.
func seededRand(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x5eed_0f_50d2)) }

func (s *stream) next() draw {
	if len(s.buf) == 0 {
		s.buf = s.block(s.rng)
		s.rng.Shuffle(len(s.buf), func(i, j int) { s.buf[i], s.buf[j] = s.buf[j], s.buf[i] })
	}
	d := s.buf[0]
	s.buf = s.buf[1:]
	return d
}

// lhs returns k quantiles in [0,1), one inside each of the k equal
// strata, in random order.
func lhs(rng *rand.Rand, k int) []float64 {
	u := make([]float64, k)
	for j, stratum := range rng.Perm(k) {
		u[j] = (float64(stratum) + rng.Float64()) / float64(k)
	}
	return u
}

// rotation yields draws that rotate through the models — a fresh seeded
// order each round, so every prefix of the stream holds each model
// equally often (±1) — taking each model's size and gate from that
// model's own stratified sequence. However long a run lasts, its mix of
// models, sizes and gates is then nearly the same for every seed.
type rotation struct {
	rng    *rand.Rand
	bs     []*models.Builder
	order  []int
	strata map[string]*strata
	mk     func(b *models.Builder, uSize, uGate float64, seed uint64) draw
}

func newRotation(seed uint64, bs []*models.Builder, k int,
	mk func(b *models.Builder, uSize, uGate float64, seed uint64) draw) *rotation {
	r := &rotation{rng: seededRand(seed), bs: bs, strata: map[string]*strata{}, mk: mk}
	for _, b := range bs {
		r.strata[b.Name] = &strata{k: k}
	}
	return r
}

func (r *rotation) next() draw {
	if len(r.order) == 0 {
		r.order = r.rng.Perm(len(r.bs))
	}
	b := r.bs[r.order[0]]
	r.order = r.order[1:]
	uSize, uGate := r.strata[b.Name].next(r.rng)
	return r.mk(b, uSize, uGate, r.rng.Uint64())
}

// strata yields (size, gate) quantile pairs from k equal size strata and
// k equal gate strata. Every k consecutive pairs use each size stratum
// and each gate stratum once, and every k×k pairs cover each (size,
// gate) cell once: a Latin square whose rows come in seeded order, with
// the point drawn uniformly inside each cell. A run that ends part-way
// through a square is therefore still balanced to within one row.
type strata struct {
	k       int
	pending [][2]float64
}

func (s *strata) next(rng *rand.Rand) (uSize, uGate float64) {
	if len(s.pending) == 0 {
		relabel := rng.Perm(s.k) // which gate stratum each diagonal uses
		for _, row := range rng.Perm(s.k) {
			for _, i := range rng.Perm(s.k) {
				g := relabel[(i+row)%s.k]
				s.pending = append(s.pending, [2]float64{
					(float64(i) + rng.Float64()) / float64(s.k),
					(float64(g) + rng.Float64()) / float64(s.k)})
			}
		}
	}
	c := s.pending[0]
	s.pending = s.pending[1:]
	return c[0], c[1]
}

// builders resolves model names.
func builders(names []string) ([]*models.Builder, error) {
	var bs []*models.Builder
	for _, n := range names {
		b, ok := models.Get(n)
		if !ok {
			return nil, fmt.Errorf("unknown model %q", n)
		}
		bs = append(bs, b)
	}
	return bs, nil
}

func byName(bs []*models.Builder) map[string]*models.Builder {
	m := map[string]*models.Builder{}
	for _, b := range bs {
		m[b.Name] = b
	}
	return m
}
