// Package loadbalance assigns bin-forest ownership to processors for the
// distributed Photon engine (section 5, "Load Balancing").
//
// Finding the optimal assignment is the NP-complete bin-packing problem;
// the paper uses the greedy Best-Fit heuristic — "a bin is added to the
// processor with the smallest photon count" — seeded by the photon counts
// observed in a short redundant pre-phase. The naive alternative (contiguous
// blocks of polygons regardless of their load) is retained as the
// comparison Table 5.2 quantifies.
package loadbalance

import (
	"container/heap"
	"fmt"
	"sort"
)

// Assignment maps each item (defining polygon / bin-tree index) to an owner
// rank.
type Assignment struct {
	Owner []int   // Owner[i] = rank owning item i
	Load  []int64 // Load[r] = total weight assigned to rank r
}

// Imbalance returns max load divided by mean load (1 = perfect).
func (a *Assignment) Imbalance() float64 {
	if len(a.Load) == 0 {
		return 1
	}
	var max, sum int64
	for _, l := range a.Load {
		if l > max {
			max = l
		}
		sum += l
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(len(a.Load))
	return float64(max) / mean
}

// MaxMinRatio returns the ratio of the most to the least loaded rank, the
// statistic Table 5.2 exhibits (≈1.9 naive vs ≈1.04 bin-packed).
func (a *Assignment) MaxMinRatio() float64 {
	if len(a.Load) == 0 {
		return 1
	}
	min, max := a.Load[0], a.Load[0]
	for _, l := range a.Load {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	if min == 0 {
		return float64(max)
	}
	return float64(max) / float64(min)
}

// Naive assigns items to ranks in contiguous index blocks, ignoring the
// weights — the strategy whose "disastrous results" (spotlight-on-one-
// processor) motivate the bin-packing phase.
func Naive(weights []int64, ranks int) (*Assignment, error) {
	if err := validate(weights, ranks); err != nil {
		return nil, err
	}
	a := &Assignment{Owner: make([]int, len(weights)), Load: make([]int64, ranks)}
	per := len(weights) / ranks
	rem := len(weights) % ranks
	idx := 0
	for r := 0; r < ranks; r++ {
		n := per
		if r < rem {
			n++
		}
		for k := 0; k < n; k++ {
			a.Owner[idx] = r
			a.Load[r] += weights[idx]
			idx++
		}
	}
	return a, nil
}

// rankHeap is a min-heap of (load, rank) pairs for Best-Fit.
type rankHeap struct {
	load []int64
	rank []int
}

func (h *rankHeap) Len() int { return len(h.rank) }
func (h *rankHeap) Less(i, j int) bool {
	if h.load[i] != h.load[j] {
		return h.load[i] < h.load[j]
	}
	return h.rank[i] < h.rank[j] // deterministic tie-break
}
func (h *rankHeap) Swap(i, j int) {
	h.load[i], h.load[j] = h.load[j], h.load[i]
	h.rank[i], h.rank[j] = h.rank[j], h.rank[i]
}
func (h *rankHeap) Push(x any) { panic("fixed-size heap") }
func (h *rankHeap) Pop() any   { panic("fixed-size heap") }

// BestFit packs items onto ranks with the greedy decreasing Best-Fit
// heuristic: sort by weight descending, repeatedly give the heaviest
// remaining item to the currently lightest rank. Deterministic: ties break
// by index.
func BestFit(weights []int64, ranks int) (*Assignment, error) {
	if err := validate(weights, ranks); err != nil {
		return nil, err
	}
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		if weights[order[x]] != weights[order[y]] {
			return weights[order[x]] > weights[order[y]]
		}
		return order[x] < order[y]
	})
	h := &rankHeap{load: make([]int64, ranks), rank: make([]int, ranks)}
	for r := 0; r < ranks; r++ {
		h.rank[r] = r
	}
	heap.Init(h)
	a := &Assignment{Owner: make([]int, len(weights)), Load: make([]int64, ranks)}
	for _, item := range order {
		r := h.rank[0]
		a.Owner[item] = r
		a.Load[r] += weights[item]
		h.load[0] += weights[item]
		heap.Fix(h, 0)
	}
	return a, nil
}

func validate(weights []int64, ranks int) error {
	if ranks <= 0 {
		return fmt.Errorf("loadbalance: ranks must be positive, got %d", ranks)
	}
	if len(weights) == 0 {
		return fmt.Errorf("loadbalance: no items to assign")
	}
	for i, w := range weights {
		if w < 0 {
			return fmt.Errorf("loadbalance: negative weight %d at %d", w, i)
		}
	}
	return nil
}
