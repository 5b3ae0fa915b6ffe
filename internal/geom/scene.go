//photon:deterministic — intersection results and traversal order must not vary between runs;
// photon-lint (nondeterm, floatreduce) polices this file — see DESIGN.md.

package geom

import (
	"fmt"
	"math"

	"repro/internal/vecmath"
)

// Scene owns the defining polygons of an environment plus the octree that
// accelerates intersection queries. Material and luminaire semantics live in
// higher layers; the Scene records only indices and emission so the geometry
// kernel stays self-contained.
type Scene struct {
	Patches []Patch
	// Luminaires lists the indices of emissive patches.
	Luminaires []int

	bounds vecmath.AABB
	octree *Octree
}

// NewScene finalizes the patches (assigning IDs in slice order), collects
// luminaires, and builds the octree.
func NewScene(patches []Patch) (*Scene, error) {
	if len(patches) == 0 {
		return nil, fmt.Errorf("geom: scene has no patches")
	}
	s := &Scene{Patches: patches}
	s.bounds = vecmath.EmptyAABB()
	for i := range s.Patches {
		p := &s.Patches[i]
		p.ID = i
		if err := p.Finish(); err != nil {
			return nil, err
		}
		if p.IsLuminaire() {
			s.Luminaires = append(s.Luminaires, i)
		}
		s.bounds = s.bounds.Union(p.Bounds())
	}
	if len(s.Luminaires) == 0 {
		return nil, fmt.Errorf("geom: scene has no luminaires")
	}
	s.octree = BuildOctree(s.Patches, DefaultOctreeConfig())
	return s, nil
}

// Bounds returns the scene's bounding box.
func (s *Scene) Bounds() vecmath.AABB { return s.bounds }

// Octree exposes the spatial index (read-only).
func (s *Scene) Octree() *Octree { return s.octree }

// Intersect finds the closest patch hit along the ray, using the octree's
// ordered traversal. It reports whether any patch was hit.
func (s *Scene) Intersect(r vecmath.Ray, h *Hit) bool {
	return s.octree.Intersect(r, Eps, math.Inf(1), h)
}

// IntersectBrute is the O(n) reference intersector used by tests and as the
// paper's "bounding box" strawman in the massive-parallelism discussion.
func (s *Scene) IntersectBrute(r vecmath.Ray, h *Hit) bool {
	closest := math.Inf(1)
	found := false
	var tmp Hit
	for i := range s.Patches {
		if s.Patches[i].Intersect(r, Eps, closest, &tmp) {
			*h = tmp
			closest = tmp.T
			found = true
		}
	}
	return found
}

// TotalArea returns the summed area of all patches.
func (s *Scene) TotalArea() float64 {
	var a float64
	for i := range s.Patches {
		a += s.Patches[i].Area()
	}
	return a
}

// TotalEmissionPower returns the scene's total emitted power, weighting each
// luminaire by area times the luminance of its emission; luminaire sampling
// is proportional to this.
func (s *Scene) TotalEmissionPower() float64 {
	var p float64
	for _, i := range s.Luminaires {
		patch := &s.Patches[i]
		p += patch.Area() * patch.Emission.Luminance()
	}
	return p
}
