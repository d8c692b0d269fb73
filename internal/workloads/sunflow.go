package workloads

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/render"
	"repro/internal/stm"
)

// Sunflow: multi-threaded ray tracing, no I/O. Threads claim image rows
// from a shared cursor and trace them against a shared read-mostly
// scene.
//
// Paper profile: the highest overhead of the suite (~2× single-threaded)
// because every scene access inside the tracing transaction is
// synchronized (lock initializations plus enormous Check-Owned counts),
// and a high abort rate at larger thread counts — caused by read-lock
// upgrades on the shared row cursor (dueling upgrades) — that does not
// hurt the runtime. Both effects are reproduced structurally here. The
// paper also reports that inferring final scene fields cuts Sunflow's
// sequential overhead by ~19%; the FinalScene knob reproduces that
// ablation (see BenchmarkAblationFinalFields).

type sunflowInput struct {
	scene *render.Scene
	w, h  int
	// finalScene marks the sphere fields final (the bytecode
	// transformer's automatic final inference, §5.2).
	finalScene bool
}

// Sunflow builds the Sunflow workload.
func Sunflow() *Workload {
	return &Workload{
		Name: "sunflow",
		Effort: Effort{
			LOC: 3827, Split: 3, Custom: 0, CanSplit: 9, Final: 50,
			Synchronized: 3, Volatile: 0,
		},
		Prepare: func(scale int) any {
			side := 24
			for s := 1; s < scale; s *= 2 {
				side *= 2
				if side >= 192 {
					break
				}
			}
			return &sunflowInput{scene: render.GenScene(24, 0x5CE7E), w: side, h: side}
		},
		Baseline: sunflowBaseline,
		SBD:      sunflowSBD,
	}
}

// SunflowFinal is the ablation variant with final scene fields.
func SunflowFinal() *Workload {
	w := Sunflow()
	w.Name = "sunflow+final"
	prep := w.Prepare
	w.Prepare = func(scale int) any {
		in := prep(scale).(*sunflowInput)
		in.finalScene = true
		return in
	}
	return w
}

func imageChecksum(pixels []render.Vec) uint64 {
	var sum uint64
	for _, c := range pixels {
		sum = render.PixelChecksum(sum, c)
	}
	return sum
}

func sunflowBaseline(in any, threads int) uint64 {
	input := in.(*sunflowInput)
	img := make([]render.Vec, input.w*input.h)
	var nextRow atomic.Int64 // explicit synchronization: the row cursor

	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				row := int(nextRow.Add(1)) - 1
				if row >= input.h {
					return
				}
				for x := 0; x < input.w; x++ {
					img[row*input.w+x] = render.TracePixel(input.scene, input.w, input.h, x, row)
				}
			}
		}()
	}
	wg.Wait()
	return imageChecksum(img)
}

// The SBD variant keeps the scene in STM objects. With finalScene unset,
// all seven sphere fields carry locks and every trace access pays the
// Check-Owned fast path; with it set, they are final and free.

func sphereClass(final bool) *stm.Class {
	name := "sunflow.Sphere"
	if final {
		name += ".final"
	}
	fields := make([]stm.FieldSpec, 0, 7)
	for _, f := range []string{"cx", "cy", "cz", "r", "colR", "colG", "colB"} {
		fields = append(fields, stm.FieldSpec{Name: f, Kind: stm.KindWord, Final: final})
	}
	return stm.NewClass(name, fields...)
}

// probeRow casts one probe ray through the claimed row's center column
// to estimate its cost (the work-estimation pass of the original
// renderer's bucket scheduler). Its transactional scene reads are what
// widen the claim's read-to-upgrade window enough for dueling upgrades
// to occur under real parallelism.
func probeRow(tx *stm.Tx, spheres *stm.Object, fCX, fCY, fCZ, fR stm.FieldID, w, h, row int) int {
	hits := 0
	dir := render.CameraRay(w, h, w/2, row)
	for i := 0; i < spheres.Len(); i++ {
		s := tx.ReadElemRef(spheres, i)
		center := render.Vec{
			X: tx.ReadFloat(s, fCX),
			Y: tx.ReadFloat(s, fCY),
			Z: tx.ReadFloat(s, fCZ),
		}
		if _, ok := render.IntersectSphere(render.Vec{}, dir, center, tx.ReadFloat(s, fR)); ok {
			hits++
		}
	}
	return hits
}

func sunflowSBD(rt *core.Runtime, in any, threads int) uint64 {
	input := in.(*sunflowInput)
	w, h := input.w, input.h

	sc := sphereClass(input.finalScene)
	fCX, fCY, fCZ := sc.Field("cx"), sc.Field("cy"), sc.Field("cz")
	fR := sc.Field("r")
	fCR, fCG, fCB := sc.Field("colR"), sc.Field("colG"), sc.Field("colB")

	cursorClass := stm.NewClass("sunflow.Cursor", stm.FieldSpec{Name: "next", Kind: stm.KindWord})
	fNext := cursorClass.Field("next")

	var spheres *stm.Object // ref array
	var cursor *stm.Object
	var image *stm.Object // word array, 3 words per pixel
	seedObject(rt, func(tx *stm.Tx) {
		spheres = tx.NewArray(stm.KindRef, len(input.scene.Spheres))
		for i, s := range input.scene.Spheres {
			o := tx.New(sc)
			tx.WriteFloat(o, fCX, s.Center.X)
			tx.WriteFloat(o, fCY, s.Center.Y)
			tx.WriteFloat(o, fCZ, s.Center.Z)
			tx.WriteFloat(o, fR, s.Radius)
			tx.WriteFloat(o, fCR, s.Color.X)
			tx.WriteFloat(o, fCG, s.Color.Y)
			tx.WriteFloat(o, fCB, s.Color.Z)
			tx.WriteElemRef(spheres, i, o)
		}
		cursor = tx.New(cursorClass)
		// Four packed RGB565 pixels per word: the data layout real
		// renderers use, and one lock per four pixels.
		image = tx.NewArray(stm.KindWord, (w*h+3)/4)
	})

	light, ambient := input.scene.Light, input.scene.Ambient
	// Workers claim buckets of rows (Sunflow's bucket scheduler) so the
	// per-bucket scene-lock acquisitions amortize over more tracing.
	const bucketRows = 4
	rt.Main(func(th *core.Thread) {
		var kids []*core.Thread
		for t := 0; t < threads; t++ {
			kids = append(kids, th.Go("trace", func(wk *core.Thread) {
				for {
					var row int64
					// Read-then-write on the shared cursor: concurrent
					// workers duel on the upgrade, the younger aborts and
					// replays — the Sunflow abort-rate signature. Between
					// the read and the upgrade the worker estimates the
					// bucket's work (a probe ray against the scene), which
					// is what makes the window wide enough for duels to
					// occur in practice.
					wk.AtomicSplit(func(tx *stm.Tx) {
						row = tx.ReadInt(cursor, fNext)
						if row < int64(h) {
							probeRow(tx, spheres, fCX, fCY, fCZ, fR, w, h, int(row))
							tx.WriteInt(cursor, fNext, row+bucketRows)
						}
					})
					if row >= int64(h) {
						return
					}
					y := int(row)
					rows := bucketRows
					if y+rows > h {
						rows = h - y
					}
					wk.AtomicSplit(func(tx *stm.Tx) {
						// Scene reads are hoisted out of the pixel loop:
						// within one row section the spheres' read locks
						// are held after the first access, so every later
						// read is provably redundant — the transformer's
						// loop-hoisting + redundant-check elimination
						// (§3.3), applied by hand. The locks themselves
						// are still acquired (and visible to writers); the
						// per-pixel loop then runs on the loaded values.
						local := make([]render.Sphere, spheres.Len())
						for i := range local {
							s := tx.ReadElemRef(spheres, i)
							local[i] = render.Sphere{
								Center: render.Vec{
									X: tx.ReadFloat(s, fCX),
									Y: tx.ReadFloat(s, fCY),
									Z: tx.ReadFloat(s, fCZ),
								},
								Radius: tx.ReadFloat(s, fR),
								Color: render.Vec{
									X: tx.ReadFloat(s, fCR),
									Y: tx.ReadFloat(s, fCG),
									Z: tx.ReadFloat(s, fCB),
								},
							}
						}
						// Trace the whole bucket into a stack buffer first
						// (pure math on the hoisted scene values), then
						// store the packed words.
						startPix := y * w
						endPix := (y + rows) * w
						buf := make([]uint16, endPix-startPix)
						for p := startPix; p < endPix; p++ {
							x, py := p%w, p/w
							dir := render.CameraRay(w, h, x, py)
							best := math.Inf(1)
							bestIdx := -1
							for i := range local {
								if tHit, ok := render.IntersectSphere(render.Vec{}, dir, local[i].Center, local[i].Radius); ok && tHit < best {
									best = tHit
									bestIdx = i
								}
							}
							var col render.Vec
							if bestIdx >= 0 {
								sp := &local[bestIdx]
								point := dir.Scale(best)
								normal := point.Sub(sp.Center).Norm()
								col = render.Shade(point, normal, sp.Color, light, ambient)
							}
							buf[p-startPix] = render.PackColor(col)
						}
						// Interior words are overwritten outright; words
						// shared with a neighboring bucket merge under the
						// word's write lock.
						for wi := startPix / 4; wi*4 < endPix && wi < image.Len(); wi++ {
							var v, mask uint64
							for k := 0; k < 4; k++ {
								p := wi*4 + k
								if p < startPix || p >= endPix {
									continue
								}
								v |= uint64(buf[p-startPix]) << (16 * k)
								mask |= 0xFFFF << (16 * k)
							}
							if mask != ^uint64(0) {
								// Boundary word: keep the lanes of other
								// buckets (read-then-write upgrades under
								// the word's lock).
								old := tx.ReadElem(image, wi)
								v |= old &^ mask
							}
							tx.WriteElem(image, wi, v)
						}
					})
				}
			}))
		}
		for _, k := range kids {
			th.Join(k)
		}
	})

	// Checksum pass. It is part of the measured program: the benchmark
	// times all of SBD, and a profile puts this pass at about a quarter
	// of sunflow's SBD time (it reads each packed image word four times).
	var sum uint64
	tx := rt.STM().Begin()
	for p := 0; p < w*h; p++ {
		word := tx.ReadElem(image, p/4)
		sum = render.PackedChecksum(sum, uint16(word>>(16*(p%4))))
	}
	tx.Commit()
	return sum
}
