package main

// The stage-two correctness gate, run after the timed window. Every
// response must be a 2xx; every body must hash equal to the first body
// seen for the same request (renders are deterministic); and the first
// body of every distinct request must decode to a PNG of the requested
// size and be byte-equal to a frame this file renders itself, from its own
// solve of the same scene, through the same exported functions the server
// calls. In a traced run those direct calls are also the stage-two layer
// measurements, taken at the phases' own resolutions and cameras.

import (
	"bytes"
	"fmt"
	"image"
	"image/png"
	"time"

	"repro/internal/core"
	"repro/internal/probe"
	"repro/internal/shared"
	"repro/internal/vecmath"
	"repro/internal/view"
)

// reference is what the check leaves behind for the layer metrics.
type reference struct {
	problems []string
	// sols and grids are indexed by served scene; nil where no request
	// touched the scene.
	sols  []*core.Result
	grids []*probe.Grid
	// renderS and encodeS are, per checked shot, how long the direct render
	// and the PNG encode took (traced runs only): what a handler's time is
	// compared with, shot by shot.
	renderS, encodeS map[int]float64
}

func (v shot) camera() view.Camera {
	return view.Camera{
		Eye:    vecmath.V(v.Eye[0], v.Eye[1], v.Eye[2]),
		LookAt: vecmath.V(v.LookAt[0], v.LookAt[1], v.LookAt[2]),
		Up:     vecmath.V(0, 0, 1),
		FovY:   65,
		Width:  v.W, Height: v.H,
	}
}

func checkFrames(tr *tracer, w workload, in *inputs, win *window, keep *bodies) (*reference, error) {
	root := tr.start("bench.check", 0)
	defer tr.end(root)
	ref := &reference{
		sols:    make([]*core.Result, len(in.scenes)),
		grids:   make([]*probe.Grid, len(in.scenes)),
		renderS: make(map[int]float64),
		encodeS: make(map[int]float64),
	}
	fail := func(format string, args ...any) {
		ref.problems = append(ref.problems, fmt.Sprintf(format, args...))
	}

	firstHash := make(map[int]uint64, len(keep.first))
	for si, body := range keep.first {
		firstHash[si] = hashOf(body)
	}
	for _, phase := range []struct {
		name    string
		samples []sample
	}{{"walk", win.walk}, {"probe", win.probe}, {"full", win.full}} {
		for i, s := range phase.samples {
			switch {
			case !s.ok():
				fail("%s request %d (%s): %s", phase.name, i, in.shots[s.Shot].Scene, statusOf(s))
			case s.Hash != firstHash[s.Shot]:
				fail("%s request %d (%s): body differs from the first response to the same request",
					phase.name, i, in.shots[s.Shot].Scene)
			}
		}
	}

	// Reference frames, scene by scene in index order.
	for si := range in.shots {
		body, ok := keep.first[si]
		if !ok {
			continue
		}
		v := in.shots[si]
		sc := in.built[v.sceneIdx]
		if ref.sols[v.sceneIdx] == nil {
			var res *core.Result
			var err error
			tr.do("shared.fill", root, func() {
				res, err = shared.Run(sc, shared.Config{Core: core.DefaultConfig(w.Top.SimPhotons), Workers: width})
			})
			if err != nil {
				return nil, fmt.Errorf("reference solve of %s: %w", v.Scene, err)
			}
			var grid *probe.Grid
			tr.do("probe.bake", root, func() { grid, err = probe.Bake(sc, res.Forest, probe.Config{}) })
			if err != nil {
				return nil, fmt.Errorf("reference bake of %s: %w", v.Scene, err)
			}
			ref.sols[v.sceneIdx], ref.grids[v.sceneIdx] = res, grid
		}

		var img *image.RGBA
		var err error
		var took time.Duration
		if v.Quality == "probe" {
			took = tr.do("probe.render", root, func() {
				img, err = probe.Render(sc, ref.grids[v.sceneIdx], v.camera(), probe.Options{})
			})
		} else {
			took = tr.do("view.render", root, func() {
				img, err = view.Render(sc, ref.sols[v.sceneIdx].Forest, v.camera(), view.Options{Samples: v.Samples, Seed: 1})
			})
		}
		if err != nil {
			return nil, fmt.Errorf("reference render of %s: %w", v.Scene, err)
		}
		ref.renderS[si] = took.Seconds()
		var want bytes.Buffer
		took = tr.do("view.png_encode."+v.Quality, root, func() { err = view.WritePNG(&want, img) })
		if err != nil {
			return nil, err
		}
		ref.encodeS[si] = took.Seconds()
		if !bytes.Equal(body, want.Bytes()) {
			fail("%s camera %d %s: served frame is not the direct render (%d vs %d bytes)",
				v.Scene, v.cameraIdx, v.Quality, len(body), want.Len())
		}
		if cfg, err := png.DecodeConfig(bytes.NewReader(body)); err != nil || cfg.Width != v.W || cfg.Height != v.H {
			fail("%s camera %d %s: body is not a %dx%d PNG (%v)", v.Scene, v.cameraIdx, v.Quality, v.W, v.H, err)
		} else if _, err := png.Decode(bytes.NewReader(body)); err != nil {
			fail("%s camera %d %s: PNG does not decode: %v", v.Scene, v.cameraIdx, v.Quality, err)
		}
	}
	return ref, nil
}
