//photon:deterministic — wavefront batching must not change a single trajectory, tally or bit;
// photon-lint (nondeterm, floatreduce) polices this file — see DESIGN.md.

package core

import (
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/vecmath"
)

// DefaultWaveSize is the photons per wavefront batch when a caller leaves
// the width unset. Wide enough to amortize the per-round bookkeeping over
// many rays, narrow enough that a batch's flight state, hit records and
// staged tallies stay cache-resident.
const DefaultWaveSize = 64

// Wave is the photon tracer every engine but geo runs: it traces photons in
// SoA batches. Origins, directions, throughputs and per-photon substream
// states live in parallel slices, a whole batch is emitted at once, and
// each bounce round intersects every still-flying photon through the
// octree's packet entry point before any photon advances to its next
// bounce (a wavefront, not a per-photon depth-first walk).
// Between rounds the active set is compacted in place — absorbed, escaped
// and bounce-capped photons drop out.
//
// Bit-identity with the per-photon path is part of the contract, not an
// aspiration:
//
//   - each photon's randomness comes from its private (seed, index)
//     substream, drawn in the same order (emission, then one scatter per
//     bounce) no matter how rounds interleave photons;
//   - the packet entry point runs each ray through the same octree walk as
//     the scalar Intersect (see geom.Octree.IntersectPacket);
//   - tallies are staged with their photon slot and flushed in slot order
//     via a stable counting sort, so the forest receives every deposit in
//     exactly the per-photon engine's order regardless of how rounds
//     interleave photons.
//
// A Wave is not safe for concurrent use; keep one per goroutine (they may
// share one Simulator). All working storage is retained between batches,
// so steady-state tracing performs no allocations.
type Wave struct {
	sim  *Simulator
	size int

	// Per-slot flight state (slot = photon position within the batch).
	streams    []rng.Source
	ox, oy, oz []float64 // current ray origin
	dx, dy, dz []float64 // current ray direction
	px, py, pz []float64 // throughput (RGB power)
	polar      []float64
	bounces    []int32

	// Active-slot list: the slots still flying, in slot order.
	active []int32

	// Packet traversal I/O, indexed by wave position (not slot).
	packet  geom.RayPacket
	scratch geom.PacketScratch
	hits    []geom.Hit
	found   []bool

	// Tally staging: append order is round order; flush restores slot order.
	staged  []stagedTally
	sorted  []Tally
	slotOff []int32
	curSlot int32
	stage   func(Tally)
}

// stagedTally is a tally tagged with the photon slot that produced it, so
// the flush can restore photon-index delivery order.
type stagedTally struct {
	t    Tally
	slot int32
}

// NewWave prepares a wavefront tracer over sim's scene. size is the batch
// width in photons; size <= 0 selects DefaultWaveSize.
func NewWave(sim *Simulator, size int) *Wave {
	if size <= 0 {
		size = DefaultWaveSize
	}
	w := &Wave{sim: sim, size: size}
	w.stage = func(t Tally) {
		w.staged = append(w.staged, stagedTally{t: t, slot: w.curSlot})
	}
	w.grow(size)
	return w
}

// grow sizes the per-slot storage for batches of up to n photons.
func (w *Wave) grow(n int) {
	if len(w.streams) >= n {
		return
	}
	w.streams = make([]rng.Source, n)
	w.ox, w.oy, w.oz = make([]float64, n), make([]float64, n), make([]float64, n)
	w.dx, w.dy, w.dz = make([]float64, n), make([]float64, n), make([]float64, n)
	w.px, w.py, w.pz = make([]float64, n), make([]float64, n), make([]float64, n)
	w.polar = make([]float64, n)
	w.bounces = make([]int32, n)
	w.active = make([]int32, 0, n)
	w.hits = make([]geom.Hit, n)
	w.found = make([]bool, n)
	w.slotOff = make([]int32, n+1)
}

// Trace emits and traces photons [lo, hi) as wavefront batches of the
// wave's size, updating stats and delivering every tally in photon-index
// order (each photon's tallies in emission-then-bounce order, photons in
// ascending index order) — the exact order TracePhotonFunc delivers when
// called per photon with PhotonStream(seed, i).
func (w *Wave) Trace(lo, hi int64, stats *Stats, deliver func(Tally)) {
	for batchLo := lo; batchLo < hi; batchLo += int64(w.size) {
		batchHi := batchLo + int64(w.size)
		if batchHi > hi {
			batchHi = hi
		}
		w.traceBatch(batchLo, batchHi, stats, deliver)
	}
}

// traceBatch runs one wavefront batch of photons [lo, hi), hi-lo <= size.
func (w *Wave) traceBatch(lo, hi int64, stats *Stats, deliver func(Tally)) {
	sim := w.sim
	seed := sim.cfg.Seed
	maxBounces := int32(sim.cfg.MaxBounces)
	n := int(hi - lo)
	w.grow(n)
	w.staged = w.staged[:0]

	// Emission round: every slot draws its emission from its own substream
	// and stages the emission tally. The substream is seated in place —
	// one rng.Source value per slot, no per-photon allocation.
	w.active = w.active[:0]
	for slot := 0; slot < n; slot++ {
		w.streams[slot].Reset(photonState(seed, lo+int64(slot)))
		w.curSlot = int32(slot)
		f := sim.EmitPhoton(&w.streams[slot], stats, w.stage)
		w.storeFlight(slot, &f)
		w.bounces[slot] = 0
		w.active = append(w.active, int32(slot))
	}

	// Bounce rounds: intersect the whole active set as one packet, then
	// interact each photon, compact survivors, repeat.
	for len(w.active) > 0 {
		w.packet.Reset()
		for _, slot := range w.active {
			w.packet.Append(vecmath.Ray{
				Origin: vecmath.Vec3{X: w.ox[slot], Y: w.oy[slot], Z: w.oz[slot]},
				Dir:    vecmath.Vec3{X: w.dx[slot], Y: w.dy[slot], Z: w.dz[slot]},
			})
		}
		m := len(w.active)
		sim.scene.Geom.IntersectPacket(&w.packet, w.hits[:m], w.found[:m], &w.scratch)

		// Interact in wave order. Writing the survivor list in place is
		// safe: position j <= wi is always behind the read cursor.
		out := w.active[:0]
		for wi, slot := range w.active {
			if !w.found[wi] {
				stats.Escapes++
				continue
			}
			w.curSlot = slot
			f := w.loadFlight(int(slot))
			if !sim.Interact(&w.streams[slot], &f, &w.hits[wi], stats, w.stage) {
				continue
			}
			if int32(f.Bounces) >= maxBounces {
				// Path length cap reached: counted absorbed, exactly as the
				// per-photon loop's exit condition does.
				stats.Absorptions++
				continue
			}
			w.storeFlight(int(slot), &f)
			w.bounces[slot] = int32(f.Bounces)
			out = append(out, slot)
		}
		w.active = out
	}

	w.flush(n, deliver)
}

// storeFlight scatters a flight into the SoA slot.
func (w *Wave) storeFlight(slot int, f *Flight) {
	w.ox[slot], w.oy[slot], w.oz[slot] = f.Ray.Origin.X, f.Ray.Origin.Y, f.Ray.Origin.Z
	w.dx[slot], w.dy[slot], w.dz[slot] = f.Ray.Dir.X, f.Ray.Dir.Y, f.Ray.Dir.Z
	w.px[slot], w.py[slot], w.pz[slot] = f.Power.X, f.Power.Y, f.Power.Z
	w.polar[slot] = f.Polarization
}

// loadFlight gathers the SoA slot back into the AoS flight the shared
// Interact physics consumes — one funnel for all engines, batched or not.
func (w *Wave) loadFlight(slot int) Flight {
	return Flight{
		Ray: vecmath.Ray{
			Origin: vecmath.Vec3{X: w.ox[slot], Y: w.oy[slot], Z: w.oz[slot]},
			Dir:    vecmath.Vec3{X: w.dx[slot], Y: w.dy[slot], Z: w.dz[slot]},
		},
		Power:        vecmath.Vec3{X: w.px[slot], Y: w.py[slot], Z: w.pz[slot]},
		Polarization: w.polar[slot],
		Bounces:      int(w.bounces[slot]),
	}
}

// flush delivers the batch's staged tallies in slot order. The counting
// sort is stable, so within one slot the staged order — emission first,
// then bounce by bounce — survives; across slots ascending order restores
// the per-photon engine's photon-index order exactly.
func (w *Wave) flush(n int, deliver func(Tally)) {
	if len(w.staged) == 0 {
		return
	}
	off := w.slotOff[:n+1]
	for i := range off {
		off[i] = 0
	}
	for i := range w.staged {
		off[w.staged[i].slot+1]++
	}
	for s := 1; s <= n; s++ {
		off[s] += off[s-1]
	}
	if cap(w.sorted) < len(w.staged) {
		w.sorted = make([]Tally, len(w.staged))
	}
	sorted := w.sorted[:len(w.staged)]
	for i := range w.staged {
		slot := w.staged[i].slot
		sorted[off[slot]] = w.staged[i].t
		off[slot]++
	}
	for i := range sorted {
		deliver(sorted[i])
	}
}
