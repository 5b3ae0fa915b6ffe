//photon:deterministic — worker tallies merge in photon order, never scheduler order;
// photon-lint (nondeterm, floatreduce) polices this file — see DESIGN.md.

// Package shared implements the shared-memory parallelization of Photon.
//
// The paper's algorithm (Figure 5.2) runs the trace loop on every worker
// against one shared bin forest, serializing every tally behind the owning
// tree's write lock — which caps scaling exactly where the paper predicts
// lock contention dominates. Run has no per-tree locks at all. Workers pull
// photon chunks from a shared work-stealing queue (dynamic self-scheduling:
// a straggler on a hard chunk never idles a finished worker, unlike a
// static split), trace each chunk through a private core.Wave into a
// per-worker tally buffer with no shared state touched, and hand completed
// buffers to an in-order merger. The merger's baton is the only
// synchronisation on the forest: one goroutine at a time holds it and
// applies whole chunks with plain Forest.Add calls (splits happen at merge
// time), and Run reads the forest only after every worker has exited.
//
// Because every photon draws from its private core.PhotonStream substream
// and chunks are merged in photon-index order, the forest Run produces is
// bit-identical to the serial engine's at any worker count and under any
// goroutine schedule — the property the cross-engine conformance matrix
// pins down.
package shared

import (
	"fmt"
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
// tree see its tallies in exactly the serial engine's order, and the baton
// (applying, flipped only under mu) is what makes the holder the forest's
// sole writer, so the trees need no locks of their own.
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
	forest   *bintree.Forest
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
// frontier, takes the baton and applies every consecutive ready chunk.
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

// apply flushes one chunk's deposits into the forest. Only the merge-baton
// holder calls it, so it is the forest's only writer while Run is live.
func (m *merger) apply(buf []core.Tally) (splits int64) {
	for _, t := range buf {
		if m.forest.Add(int(t.Patch), t.Point, t.Power) {
			splits++
		}
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
	forest := bintree.NewForestSectioned(len(scene.Geom.Patches), coreCfg.Sections, coreCfg.Bin)
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
		forest:   forest,
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
		Forest:         forest,
		Stats:          total,
		EmittedPhotons: total.PhotonsEmitted,
	}, nil
}
