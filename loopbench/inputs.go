package main

// Seeded, cached inputs. The seed perturbs the Sedov initial condition
// through the exported sim.Problem/sim.Problem3D types (see scale2D and
// blastParams); zmeshd only ever sees the generated values. The hydro
// solves are slow on a small host (about 4 s for the 2-D set and 15-20 s
// for the 3-D set), so each set is generated once per seed and cached under
// .bench_build/inputs, outside the timed runs and outside setup_s.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	zmesh "repro"
	"repro/internal/amr"
	"repro/internal/sim"
)

// inputVersion names the cache format and generation recipe; bump it when
// either changes so stale caches are regenerated instead of misread.
const inputVersion = "v2"

// maxCachedSeeds bounds the input cache: the oldest sets beyond it are
// removed after a new one is written.
const maxCachedSeeds = 24

// series is one mesh plus one or more snapshots of a set of quantities,
// each stored as its level-order value stream.
type series struct {
	Structure []byte
	Names     []string
	Times     []float64     // physical time of each snapshot
	Snaps     [][][]float64 // [snapshot][quantity] level-order values
}

func (s *series) mesh() (*zmesh.Mesh, error) { return amr.MeshFromStructure(s.Structure) }

// cells is the length of one quantity's value stream.
func (s *series) cells() int { return len(s.Snaps[0][0]) }

// set2D is the input of fields2d-auto-sz; set3D serves both 3-D workloads.
type set2D struct {
	Seed    int64
	GenSecs float64
	Scale   float64 // density and pressure scale
	Fields  series  // one snapshot, 5 quantities
}

type set3D struct {
	Seed     int64
	GenSecs  float64
	Ckpt     series // last time, own hierarchy, 5 quantities
	Temporal series // 4 times sampled onto the first time's hierarchy, dens+pres
}

// blastParams are the seed's perturbations of the 3-D Sedov set-up: the
// blast-core pressure within ±3%, every snapshot time within ±1%, and the
// blast centre within ±shift of the domain centre. The shift stays small
// enough that no solver cell crosses the blast radius, so the deposited
// energy moves only with the pressure and the AMR hierarchy keeps its size.
type blastParams struct {
	pressure float64
	centre   [3]float64
	tScale   float64
}

func seededParams(seed int64) blastParams {
	rng := rand.New(rand.NewSource(seed))
	u := func() float64 { return 2*rng.Float64() - 1 }
	p := blastParams{pressure: 500 * (1 + 0.03*u()), tScale: 1 + 0.01*u()}
	// The blast radius (1.92 cells) is 0.26 cells from the nearest cell
	// centres, so a shift of 0.1 cells per axis keeps the core's cells.
	for i := range p.centre {
		p.centre[i] = 0.5 + 0.1/res3D*u()
	}
	return p
}

const (
	res2D = 128 // 2-D solver grid (res2D² cells)
	res3D = 48  // 3-D solver grid (res3D³ cells)
)

// temporalTimes are the 3-D snapshot times as fractions of the Sedov end
// time; the last one is also the ckpt3d-sz snapshot.
var temporalTimes = []float64{0.85, 0.9, 0.95, 1.0}

// scale2D is the seed's exact perturbation of the 2-D set-up: density and
// pressure everywhere are multiplied by a power of two. The Euler equations
// are invariant under that scaling and a power of two keeps it exact in
// floating point, so dens and pres come out scaled bit for bit while vel and
// ener are unchanged. The auto picker's candidates lie within 1.4% of each
// other on these fields, and a physical perturbation (±3% blast energy)
// flips its choice for ener between tac and level from seed to seed, which
// makes the op's cost bimodal; the exact scaling keeps the choices fixed.
func scale2D(seed int64) float64 {
	return math.Ldexp(1, int(rand.New(rand.NewSource(seed)).Int63n(9))-4)
}

func generate2D(seed int64) (*set2D, error) {
	t0 := time.Now()
	base, err := sim.Lookup("sedov")
	if err != nil {
		return nil, err
	}
	a := scale2D(seed)
	p := base
	p.InitialCondition = func(x, y float64) (float64, float64, float64, float64) {
		rho, vx, vy, pr := base.InitialCondition(x, y)
		return a * rho, vx, vy, a * pr
	}
	g, err := sim.Run(p, res2D, res2D, 1)
	if err != nil {
		return nil, fmt.Errorf("2-D solve: %w", err)
	}
	opt := sim.DefaultCheckpointOptions()
	opt.Resolution = res2D
	opt.MaxDepth = 3 // finest level matches the 128² solve
	ck, err := sim.ProjectCheckpoint(g, "sedov", opt)
	if err != nil {
		return nil, err
	}
	s := &set2D{Seed: seed, Scale: a, Fields: seriesOf(ck.Mesh, g.Time, ck.Fields)}
	s.GenSecs = time.Since(t0).Seconds()
	return s, nil
}

func generate3D(seed int64) (*set3D, error) {
	t0 := time.Now()
	base, err := sim.Lookup3D("sedov3d")
	if err != nil {
		return nil, err
	}
	bp := seededParams(seed)
	p := base
	p.InitialCondition = func(x, y, z float64) (float64, float64, float64, float64, float64) {
		dx, dy, dz := x-bp.centre[0], y-bp.centre[1], z-bp.centre[2]
		if math.Sqrt(dx*dx+dy*dy+dz*dz) < 0.04 {
			return 1, 0, 0, 0, bp.pressure
		}
		return 1, 0, 0, 0, 1e-2
	}
	// One solve advanced through the snapshot times: successive snapshots
	// are genuinely correlated, so temporal deltas are real.
	g, err := sim.Run3D(p, res3D, temporalTimes[0]*bp.tScale)
	if err != nil {
		return nil, fmt.Errorf("3-D solve: %w", err)
	}
	build := amr.BuildOptions{Dims: 3, BlockSize: 8, RootDims: [3]int{2, 2, 2}, MaxDepth: 2, Threshold: 0.35}
	first, _, err := amr.BuildAdaptive(build, g.Sampler3("dens"))
	if err != nil {
		return nil, err
	}
	s := &set3D{Seed: seed}
	s.Temporal = series{Structure: first.Structure(), Names: []string{"dens", "pres"}}
	for i, ts := range temporalTimes {
		if i > 0 {
			if err := g.Advance(p.TEnd*ts*bp.tScale, p.CFL); err != nil {
				return nil, fmt.Errorf("3-D solve: %w", err)
			}
		}
		snap := make([][]float64, 0, 2)
		for _, q := range s.Temporal.Names {
			snap = append(snap, zmesh.FieldValues(amr.SampleField(first, q, g.Sampler3(q))))
		}
		s.Temporal.Times = append(s.Temporal.Times, g.Time)
		s.Temporal.Snaps = append(s.Temporal.Snaps, snap)
	}
	// The checkpoint snapshot adapts its own hierarchy to the last state.
	last, dens, err := amr.BuildAdaptive(build, g.Sampler3("dens"))
	if err != nil {
		return nil, err
	}
	dens.Name = "dens"
	fields := []*amr.Field{dens}
	for _, q := range sim.QuantityNames3D()[1:] {
		fields = append(fields, amr.SampleField(last, q, g.Sampler3(q)))
	}
	s.Ckpt = seriesOf(last, g.Time, fields)
	s.GenSecs = time.Since(t0).Seconds()
	return s, nil
}

func seriesOf(m *amr.Mesh, t float64, fields []*amr.Field) series {
	s := series{Structure: m.Structure(), Times: []float64{t}}
	snap := make([][]float64, 0, len(fields))
	for _, f := range fields {
		s.Names = append(s.Names, f.Name)
		snap = append(snap, zmesh.FieldValues(f))
	}
	s.Snaps = [][][]float64{snap}
	return s
}

func cachePath(kind string, seed int64) string {
	return filepath.Join(buildDir, "inputs", fmt.Sprintf("%s-%s-seed%d.gob", inputVersion, kind, seed))
}

// loadOrGenerate reads a cached set, or generates, caches and returns it.
// regen forces regeneration.
func loadOrGenerate[T any](kind string, seed int64, regen bool, gen func(int64) (*T, error)) (*T, error) {
	path := cachePath(kind, seed)
	if !regen {
		if b, err := os.ReadFile(path); err == nil {
			v := new(T)
			if err := gob.NewDecoder(bytes.NewReader(b)).Decode(v); err == nil {
				return v, nil
			}
		}
	}
	v, err := gen(seed)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	if err := writeFileAtomic(path, buf.Bytes()); err != nil {
		return nil, err
	}
	pruneCache(filepath.Dir(path))
	return v, nil
}

func writeFileAtomic(path string, b []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// pruneCache keeps the newest maxCachedSeeds files of the cache directory.
func pruneCache(dir string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	type aged struct {
		name string
		mod  time.Time
	}
	var files []aged
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			files = append(files, aged{e.Name(), info.ModTime()})
		}
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod.After(files[j].mod) })
	for _, f := range files[min(len(files), maxCachedSeeds):] {
		os.Remove(filepath.Join(dir, f.name))
	}
}
