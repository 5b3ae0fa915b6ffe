//photon:deterministic — worker tallies merge in photon order, never scheduler order;
// photon-lint (nondeterm, floatreduce) polices this file — see DESIGN.md.

// Package shared implements the shared-memory parallelization of Photon.
//
// The paper's algorithm (Figure 5.2) runs the trace loop on every worker
// against one shared bin forest, serializing every tally behind the owning
// tree's write lock — which caps scaling exactly where the paper predicts
// lock contention dominates. Run keeps the forest and its per-tree locks
// but takes them off the hot path. Workers pull photon chunks from a
// shared work-stealing queue (dynamic self-scheduling: a straggler on a
// hard chunk never idles a finished worker, unlike a static split), trace
// each chunk through a private core.Wave into a per-worker tally buffer
// with no shared state touched, and hand completed buffers to an in-order
// merger that flushes batched deposits into the forest — splits happen at
// merge time, under the per-tree lock, so a viewer can still render
// concurrently with an ongoing simulation (the paper's
// lights-on-while-walking-in picture).
//
// Because every photon draws from its private core.PhotonStream substream
// and chunks are merged in photon-index order, the forest Run produces is
// bit-identical to the serial engine's at any worker count and under any
// goroutine schedule — the property the cross-engine conformance matrix
// pins down.
package shared

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/bintree"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scenes"
)

// Config extends the serial configuration with a worker count.
type Config struct {
	Core    core.Config
	Workers int
	// ChunkSize is the photons per work-stealing chunk (default 512).
	// Smaller chunks balance load more finely at the cost of more queue
	// and merge transactions.
	ChunkSize int64
	// BatchSize is the photons per wavefront batch within a chunk (default
	// core.DefaultWaveSize). Each worker traces its chunk through a private
	// core.Wave of this width. Any width produces bit-identical results;
	// only throughput changes.
	BatchSize int
	// Progress, when non-nil, receives the photons merged so far and the
	// total. It is invoked by whichever worker holds the merge baton, in
	// strictly increasing order of done.
	Progress func(done, total int64)
	// Obs, when non-nil, records the engine's interior phases: one
	// "simulate/chunk" span per traced chunk (totals sum across concurrent
	// workers, so TotalMs reads as trace CPU-time), one "simulate/merge"
	// span per merged chunk, and the per-worker photon counts in the
	// "worker_photons" series. Spans wrap whole chunks, never photons.
	Obs *obs.Run
}

// DefaultConfig uses all available CPUs.
func DefaultConfig(photons int64) Config {
	return Config{Core: core.DefaultConfig(photons), Workers: runtime.GOMAXPROCS(0)}
}

// LockedForest guards a bin forest with one RWMutex per tree. Tally
// updates (which may split) take the tree's write lock; radiance queries
// take the read lock, so a viewer can render concurrently with an ongoing
// simulation. In Run only the merge path writes, so workers never touch a
// lock while tracing.
type LockedForest struct {
	forest *bintree.Forest
	locks  []sync.RWMutex
}

// NewLockedForest wraps a fresh unsectioned forest for nPatches patches.
func NewLockedForest(nPatches int, cfg bintree.Config) *LockedForest {
	return NewLockedForestSectioned(nPatches, 1, cfg)
}

// NewLockedForestSectioned wraps a fresh forest with cells×cells section
// trees per patch; the lock granularity is the section tree.
func NewLockedForestSectioned(nPatches, cells int, cfg bintree.Config) *LockedForest {
	f := bintree.NewForestSectioned(nPatches, cells, cfg)
	return &LockedForest{forest: f, locks: make([]sync.RWMutex, f.NumTrees())}
}

// Add tallies a photon under the owning tree's write lock; reports a split.
func (lf *LockedForest) Add(patch int, p bintree.Point, w bintree.RGB) bool {
	unit := lf.forest.UnitOf(patch, p)
	lf.locks[unit].Lock()
	split := lf.forest.AddToUnit(unit, p, w)
	lf.locks[unit].Unlock()
	return split
}

// Radiance queries under the read lock.
func (lf *LockedForest) Radiance(patch int, p bintree.Point, patchArea float64) bintree.RGB {
	unit := lf.forest.UnitOf(patch, p)
	lf.locks[unit].RLock()
	r := lf.forest.RadianceInUnit(unit, p, patchArea)
	lf.locks[unit].RUnlock()
	return r
}

// Forest returns the underlying forest. Callers must ensure no concurrent
// mutation (i.e. after Run returns).
func (lf *LockedForest) Forest() *bintree.Forest { return lf.forest }

// chunkQueue deals out photon chunks: a worker that finishes early steals
// the next unclaimed chunk instead of idling behind a static partition.
type chunkQueue struct {
	next    atomic.Int64
	chunks  int64
	size    int64
	photons int64
}

// take claims the next chunk, returning its index and photon range.
func (q *chunkQueue) take() (idx, lo, hi int64, ok bool) {
	idx = q.next.Add(1) - 1
	if idx >= q.chunks {
		return 0, 0, 0, false
	}
	lo = idx * q.size
	hi = lo + q.size
	if hi > q.photons {
		hi = q.photons
	}
	return idx, lo, hi, true
}

// merger commits completed chunk buffers into the forest in chunk-index
// order. Whichever worker completes the frontier chunk takes the merge
// baton and drains every consecutive ready chunk; late chunks park their
// buffer and return to tracing. In-order commitment is what makes every
// tree see its tallies in exactly the serial engine's order.
//
// Parking is bounded: a worker whose chunk is more than window chunks
// ahead of the frontier blocks until the frontier catches up, so the
// buffered-but-unmerged tallies can never exceed ~window chunks even when
// tracing outruns the single merge baton (backpressure, not OOM).
type merger struct {
	mu       sync.Mutex
	frontier sync.Cond // signaled whenever next advances
	pending  map[int64]mergeChunk
	next     int64
	window   int64
	applying bool
	lf       *LockedForest
	splits   int64
	done     int64
	total    int64
	progress func(done, total int64)
	obs      *obs.Run
}

type mergeChunk struct {
	photons int64
	buf     []core.Tally
}

// commit parks chunk idx's buffer and, if idx completes the in-order
// frontier, applies every consecutive ready chunk under the per-tree locks.
func (m *merger) commit(idx, photons int64, buf []core.Tally) {
	m.mu.Lock()
	// Backpressure: the frontier chunk itself never waits, so the baton
	// always has work and the wait always terminates.
	for idx >= m.next+m.window {
		m.frontier.Wait()
	}
	m.pending[idx] = mergeChunk{photons: photons, buf: buf}
	if m.applying {
		m.mu.Unlock()
		return
	}
	m.applying = true
	for {
		c, ok := m.pending[m.next]
		if !ok {
			break
		}
		delete(m.pending, m.next)
		m.mu.Unlock()
		span := m.obs.StartSpan("simulate/merge")
		splits := m.apply(c.buf)
		span.End()
		m.mu.Lock()
		m.splits += splits
		m.done += c.photons
		m.next++
		m.frontier.Broadcast()
		if m.progress != nil {
			done := m.done
			m.mu.Unlock()
			m.progress(done, m.total) // outside the lock: callback may query
			m.mu.Lock()
		}
	}
	m.applying = false
	m.mu.Unlock()
}

// apply flushes one chunk's deposits: consecutive tallies bound for the
// same tree are applied under a single write-lock hold.
func (m *merger) apply(buf []core.Tally) (splits int64) {
	forest := m.lf.forest
	for i := 0; i < len(buf); {
		unit := forest.UnitOf(int(buf[i].Patch), buf[i].Point)
		j := i + 1
		for j < len(buf) && forest.UnitOf(int(buf[j].Patch), buf[j].Point) == unit {
			j++
		}
		m.lf.locks[unit].Lock()
		for ; i < j; i++ {
			if forest.AddToUnit(unit, buf[i].Point, buf[i].Power) {
				splits++
			}
		}
		m.lf.locks[unit].Unlock()
	}
	return splits
}

// Run executes the shared-memory simulation on the buffered, contention-free
// path: cfg.Workers goroutines steal photon chunks, trace them lock-free
// into private buffers, and merge in order.
func Run(scene *scenes.Scene, cfg Config) (*core.Result, error) {
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("shared: Workers must be positive, got %d", cfg.Workers)
	}
	sim, err := core.NewSimulator(scene, cfg.Core)
	if err != nil {
		return nil, err
	}
	coreCfg := sim.Config() // normalized
	chunk := cfg.ChunkSize
	if chunk <= 0 {
		chunk = 512
	}
	lf := NewLockedForestSectioned(len(scene.Geom.Patches), coreCfg.Sections, coreCfg.Bin)
	queue := &chunkQueue{
		chunks:  (coreCfg.Photons + chunk - 1) / chunk,
		size:    chunk,
		photons: coreCfg.Photons,
	}
	m := &merger{
		pending: make(map[int64]mergeChunk),
		// Generous window: workers only ever block when tracing outruns
		// the merge baton by several full rounds.
		window:   max(int64(cfg.Workers)*4, 16),
		lf:       lf,
		total:    coreCfg.Photons,
		progress: cfg.Progress,
		obs:      cfg.Obs,
	}
	m.frontier.L = &m.mu

	statsCh := make(chan core.Stats, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var st core.Stats
			// One wavefront per worker, reused across every chunk it
			// steals. The Wave delivers each chunk's tallies in
			// photon-index order — exactly what the in-order merger
			// expects, so batching is invisible to the conformance
			// contract.
			wave := core.NewWave(sim, cfg.BatchSize)
			for {
				idx, lo, hi, ok := queue.take()
				if !ok {
					break
				}
				// Private per-worker buffer: the trace loop touches no
				// shared state at all. The span wraps the whole chunk —
				// commit (which may take the merge baton) is excluded, so
				// chunk time is pure trace time.
				span := cfg.Obs.StartSpan("simulate/chunk")
				buf := make([]core.Tally, 0, (hi-lo)*3)
				deliver := func(t core.Tally) { buf = append(buf, t) }
				wave.Trace(lo, hi, &st, deliver)
				span.End()
				cfg.Obs.AddIndexed("worker_photons", w, float64(hi-lo))
				m.commit(idx, hi-lo, buf)
			}
			statsCh <- st
		}()
	}
	wg.Wait()
	close(statsCh)

	var total core.Stats
	for st := range statsCh {
		total.Add(st)
	}
	total.BinSplits = m.splits
	return &core.Result{
		Scene:          scene,
		Forest:         lf.Forest(),
		Stats:          total,
		EmittedPhotons: total.PhotonsEmitted,
	}, nil
}
