package main

// The three workloads. Every write op writes one whole snapshot (every
// quantity) and every read op reads that snapshot back, so all ops of a
// workload have the same composition. Checks run after each op, outside
// its timer, and are computed from the benchmark's own inputs: the bound
// is resolved from the raw values' min/max here, never taken from zmeshd.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"

	zmesh "repro"
	"repro/client"
	"repro/internal/wire"
)

const relBound = 1e-4

// workload is one traffic mix driven through the public client.
type workload interface {
	// needsStore reports whether zmeshd runs with a temporal store.
	needsStore() bool
	// register is the mesh registration part of set-up.
	register(ctx context.Context, cl *client.Client, tr *tracer) error
	// prepareWrite builds op k's inputs before its timer starts; write and
	// read run op k (k is unique within the process); checkWrite and
	// checkRead verify them afterwards.
	prepareWrite(k int) error
	write(ctx context.Context, cl *client.Client, tr *tracer, k int) error
	checkWrite(k int) error
	read(ctx context.Context, cl *client.Client, tr *tracer, k int) error
	checkRead(k int) error
	// rawPerOp is the float64 bytes one write op writes; one read op
	// delivers the same amount (plus, for temporal reads, the extra coarse
	// and tiered reads counted in readRawPerOp).
	rawPerOp() int64
	readRawPerOp() int64
	// storedBytes is the artifact bytes op k's write produced.
	storedBytes(k int) int64
	// callsPerOp is the number of client method calls of one write and one
	// read op, the base against which transport retries are counted.
	callsPerOp() (write, read int)
	// layers describes the op's fields for the in-process replays.
	layers() *layerInput
}

// valueBound is the benchmark's own resolution of the relative bound.
func valueBound(values []float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi-lo <= 0 {
		return relBound
	}
	return relBound * (hi - lo)
}

// checkWithin verifies length and the point-wise bound.
func checkWithin(what string, want, got []float64, bound float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: decoded %d values, want %d", what, len(got), len(want))
	}
	for i, w := range want {
		if e := math.Abs(got[i] - w); !(e <= bound) {
			return fmt.Errorf("%s: value %d off by %g, bound %g", what, i, e, bound)
		}
	}
	return nil
}

// ---- ckpt3d-sz -------------------------------------------------------------

// ckpt3d writes a 3-D snapshot as one /checkpoint batch and reads it back
// with one /decompress-stream call per quantity.
type ckpt3d struct {
	in     *series
	meshID string
	fields []client.BatchField
	bounds []float64
	opt    zmesh.Options

	arts    map[int][]*zmesh.Compressed
	readBuf []bytes.Buffer
}

func newCkpt3D(s *set3D) *ckpt3d {
	w := &ckpt3d{in: &s.Ckpt, opt: zmesh.Options{Layout: zmesh.LayoutZMesh, Curve: "hilbert", Codec: "sz"}, arts: map[int][]*zmesh.Compressed{}}
	for i, name := range w.in.Names {
		v := w.in.Snaps[0][i]
		w.fields = append(w.fields, client.BatchField{Name: name, Values: v})
		w.bounds = append(w.bounds, valueBound(v))
	}
	w.readBuf = make([]bytes.Buffer, len(w.fields))
	return w
}

func (w *ckpt3d) needsStore() bool       { return false }
func (w *ckpt3d) prepareWrite(int) error { return nil }

func (w *ckpt3d) register(ctx context.Context, cl *client.Client, tr *tracer) error {
	return tr.call("client.RegisterMesh", func() (err error) {
		w.meshID, err = cl.RegisterMesh(ctx, w.in.Structure)
		return err
	})
}

func (w *ckpt3d) write(ctx context.Context, cl *client.Client, tr *tracer, k int) error {
	return tr.call("client.CompressBatch", func() error {
		arts, err := cl.CompressBatch(ctx, w.meshID, w.fields, w.opt, zmesh.RelBound(relBound))
		w.arts[k] = arts
		return err
	})
}

func (w *ckpt3d) checkWrite(k int) error {
	arts := w.arts[k]
	if len(arts) != len(w.fields) {
		return fmt.Errorf("checkpoint returned %d artifacts for %d fields", len(arts), len(w.fields))
	}
	for i, a := range arts {
		if a.FieldName != w.fields[i].Name || a.NumValues != len(w.fields[i].Values) {
			return fmt.Errorf("artifact %d is %s/%d values, want %s/%d", i, a.FieldName, a.NumValues, w.fields[i].Name, len(w.fields[i].Values))
		}
	}
	return nil
}

func (w *ckpt3d) read(ctx context.Context, cl *client.Client, tr *tracer, k int) error {
	arts := w.arts[k]
	if arts == nil {
		return fmt.Errorf("op %d has no artifacts to read", k)
	}
	for i, a := range arts {
		buf := &w.readBuf[i]
		buf.Reset()
		if err := tr.call("client.DecompressStream", func() error {
			_, err := cl.DecompressStream(ctx, w.meshID, a, buf)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

func (w *ckpt3d) checkRead(k int) error {
	for i, f := range w.fields {
		raw := w.readBuf[i].Bytes()
		if len(raw) != 8*len(f.Values) {
			return fmt.Errorf("%s: streamed %d bytes, want %d", f.Name, len(raw), 8*len(f.Values))
		}
		b := w.bounds[i]
		for j, want := range f.Values {
			got := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:]))
			if e := math.Abs(got - want); !(e <= b) {
				return fmt.Errorf("%s: value %d off by %g, bound %g", f.Name, j, e, b)
			}
		}
	}
	// Artifacts of an op are read once; drop them to bound memory.
	delete(w.arts, k)
	return nil
}

func (w *ckpt3d) rawPerOp() int64     { return int64(8 * len(w.fields) * w.in.cells()) }
func (w *ckpt3d) readRawPerOp() int64 { return w.rawPerOp() }

func (w *ckpt3d) storedBytes(k int) int64 {
	var n int64
	for _, a := range w.arts[k] {
		n += int64(len(a.Payload))
	}
	return n
}

func (w *ckpt3d) callsPerOp() (int, int) { return 1, len(w.fields) }

func (w *ckpt3d) layers() *layerInput {
	return &layerInput{series: w.in, snaps: []int{0}, opt: w.opt, framed: true}
}

// ---- fields2d-auto-sz ------------------------------------------------------

// fields2d writes a 2-D snapshot as one buffered /compress call per
// quantity with layout=auto, and reads it back with one buffered
// /decompress call per quantity under the layout each artifact recorded.
type fields2d struct {
	in     *series
	meshID string
	bounds []float64
	opt    zmesh.Options

	arts map[int][]*zmesh.Compressed
	got  [][]float64
}

func newFields2D(s *set2D) *fields2d {
	w := &fields2d{in: &s.Fields, opt: zmesh.Options{Layout: zmesh.LayoutAuto, Curve: "hilbert", Codec: "sz"}, arts: map[int][]*zmesh.Compressed{}}
	for _, v := range w.in.Snaps[0] {
		w.bounds = append(w.bounds, valueBound(v))
	}
	w.got = make([][]float64, len(w.bounds))
	return w
}

func (w *fields2d) needsStore() bool       { return false }
func (w *fields2d) prepareWrite(int) error { return nil }

func (w *fields2d) register(ctx context.Context, cl *client.Client, tr *tracer) error {
	return tr.call("client.RegisterMesh", func() (err error) {
		w.meshID, err = cl.RegisterMesh(ctx, w.in.Structure)
		return err
	})
}

func (w *fields2d) write(ctx context.Context, cl *client.Client, tr *tracer, k int) error {
	arts := make([]*zmesh.Compressed, 0, len(w.in.Names))
	defer func() { w.arts[k] = arts }()
	for i, name := range w.in.Names {
		var a *zmesh.Compressed
		if err := tr.call("client.Compress", func() (err error) {
			a, err = cl.Compress(ctx, w.meshID, name, w.in.Snaps[0][i], w.opt, zmesh.RelBound(relBound))
			return err
		}); err != nil {
			return err
		}
		arts = append(arts, a)
	}
	return nil
}

func (w *fields2d) checkWrite(k int) error {
	arts := w.arts[k]
	if len(arts) != len(w.in.Names) {
		return fmt.Errorf("%d artifacts for %d fields", len(arts), len(w.in.Names))
	}
	for i, a := range arts {
		if a.FieldName != w.in.Names[i] || a.NumValues != w.in.cells() {
			return fmt.Errorf("artifact %d is %s/%d values", i, a.FieldName, a.NumValues)
		}
		if a.Layout == zmesh.LayoutAuto {
			return fmt.Errorf("%s: artifact records no concrete layout", a.FieldName)
		}
	}
	return nil
}

func (w *fields2d) read(ctx context.Context, cl *client.Client, tr *tracer, k int) error {
	arts := w.arts[k]
	if arts == nil {
		return fmt.Errorf("op %d has no artifacts to read", k)
	}
	for i, a := range arts {
		if err := tr.call("client.Decompress", func() (err error) {
			w.got[i], err = cl.Decompress(ctx, w.meshID, a)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

func (w *fields2d) checkRead(k int) error {
	for i, name := range w.in.Names {
		if err := checkWithin(name, w.in.Snaps[0][i], w.got[i], w.bounds[i]); err != nil {
			return err
		}
	}
	return nil
}

func (w *fields2d) rawPerOp() int64     { return int64(8 * len(w.in.Names) * w.in.cells()) }
func (w *fields2d) readRawPerOp() int64 { return w.rawPerOp() }

func (w *fields2d) storedBytes(k int) int64 {
	var n int64
	for _, a := range w.arts[k] {
		n += int64(len(a.Payload))
	}
	return n
}

func (w *fields2d) callsPerOp() (int, int) { return len(w.in.Names), len(w.in.Names) }

func (w *fields2d) layers() *layerInput {
	li := &layerInput{series: w.in, snaps: []int{0}, opt: w.opt}
	// The picker's choices, from any op: they are a pure function of the
	// field, so every op records the same ones.
	for _, arts := range w.arts {
		for _, a := range arts {
			li.winners = append(li.winners, a.Layout)
		}
		break
	}
	return li
}

// ---- temporal3d-zfp --------------------------------------------------------

// temporalTiers is the tier count of the progressive read.
const temporalTiers = 3

// temporal3d streams 4 snapshots of dens and pres through a temporal
// session (8 appends, then seal) and reads the sealed checkpoint back:
// every snapshot of both streams in full, plus a levels=1 coarse read and a
// tiers read of the last dens snapshot. Op k scales every value by
// 1+(k+1)·2⁻¹⁶, so no op's frames repeat an earlier op's and nothing
// deduplicates in the content-addressed store.
type temporal3d struct {
	in  *series
	m   *zmesh.Mesh
	opt zmesh.Options

	ckpt     map[int]string
	frames   map[int]int64  // stored frame bytes per op
	fields   []*zmesh.Field // the op being written, snapshot-major
	appended []*client.AppendResult

	got    [][][]float64 // [snap][field] full reads of the current op
	levels *client.LevelData
	tiers  *client.TierData
}

func newTemporal3D(s *set3D) (*temporal3d, error) {
	m, err := s.Temporal.mesh()
	if err != nil {
		return nil, err
	}
	w := &temporal3d{in: &s.Temporal, m: m, opt: zmesh.Options{Layout: zmesh.LayoutZMesh, Curve: "hilbert", Codec: "zfp"},
		ckpt: map[int]string{}, frames: map[int]int64{}}
	w.got = make([][][]float64, len(w.in.Snaps))
	for i := range w.got {
		w.got[i] = make([][]float64, len(w.in.Names))
	}
	return w, nil
}

// opScale is op k's value scaling.
func opScale(k int) float64 { return 1 + float64(k+1)/65536 }

// opValues is op k's stream of quantity q at snapshot si.
func (w *temporal3d) opValues(k, si, q int) []float64 {
	src := w.in.Snaps[si][q]
	out := make([]float64, len(src))
	s := opScale(k)
	for i, v := range src {
		out[i] = v * s
	}
	return out
}

func (w *temporal3d) needsStore() bool { return true }

func (w *temporal3d) register(context.Context, *client.Client, *tracer) error {
	return nil // frames carry their own topology; sessions need no mesh
}

func (w *temporal3d) prepareWrite(k int) error {
	w.fields = w.fields[:0]
	for si := range w.in.Snaps {
		for q, name := range w.in.Names {
			f, err := zmesh.FieldFromValues(w.m, name, w.opValues(k, si, q))
			if err != nil {
				return err
			}
			w.fields = append(w.fields, f)
		}
	}
	w.appended = w.appended[:0]
	return nil
}

func (w *temporal3d) write(ctx context.Context, cl *client.Client, tr *tracer, k int) error {
	var sess *client.TemporalSession
	if err := tr.call("client.NewTemporalSession", func() (err error) {
		sess, err = cl.NewTemporalSession(ctx, w.opt)
		return err
	}); err != nil {
		return err
	}
	for _, f := range w.fields {
		if err := tr.call("client.Append", func() error {
			r, err := sess.Append(ctx, f, zmesh.RelBound(relBound))
			if err == nil {
				w.appended = append(w.appended, r)
			}
			return err
		}); err != nil {
			return err
		}
	}
	return tr.call("client.Seal", func() (err error) {
		w.ckpt[k], err = sess.Seal(ctx)
		return err
	})
}

// frameBytes is the size of the object the store keeps for one frame.
func frameBytes(tc *zmesh.TemporalCompressed) (int64, error) {
	b, err := wire.EncodeTemporalFrame(frameOf(tc))
	return int64(len(b)), err
}

func (w *temporal3d) checkWrite(k int) error {
	if w.ckpt[k] == "" {
		return fmt.Errorf("op %d sealed no checkpoint", k)
	}
	if len(w.appended) != len(w.fields) {
		return fmt.Errorf("op %d appended %d frames, want %d", k, len(w.appended), len(w.fields))
	}
	var stored int64
	for i, r := range w.appended {
		si := i / len(w.in.Names)
		if r.Keyframe != (si == 0) || r.FrameIndex != si || r.Recovered {
			return fmt.Errorf("%s snapshot %d: frame %d keyframe=%v recovered=%v", w.fields[i].Name, si, r.FrameIndex, r.Keyframe, r.Recovered)
		}
		n, err := frameBytes(r.Frame)
		if err != nil {
			return err
		}
		stored += n
	}
	w.frames[k] = stored
	return nil
}

func (w *temporal3d) read(ctx context.Context, cl *client.Client, tr *tracer, k int) error {
	id := w.ckpt[k]
	if id == "" {
		return fmt.Errorf("op %d has no checkpoint to read", k)
	}
	for q, name := range w.in.Names {
		for si := range w.in.Snaps {
			if err := tr.call("client.ReadField", func() (err error) {
				w.got[si][q], err = cl.ReadField(ctx, id, name, si)
				return err
			}); err != nil {
				return err
			}
		}
	}
	last := len(w.in.Snaps) - 1
	if err := tr.call("client.ReadFieldLevels", func() (err error) {
		w.levels, err = cl.ReadFieldLevels(ctx, id, w.in.Names[0], last, 1)
		return err
	}); err != nil {
		return err
	}
	return tr.call("client.ReadFieldTiers", func() (err error) {
		w.tiers, err = cl.ReadFieldTiers(ctx, id, w.in.Names[0], last, temporalTiers)
		return err
	})
}

func (w *temporal3d) checkRead(k int) error {
	for si := range w.in.Snaps {
		for q, name := range w.in.Names {
			want := w.opValues(k, si, q)
			if err := checkWithin(fmt.Sprintf("%s snapshot %d", name, si), want, w.got[si][q], valueBound(want)); err != nil {
				return err
			}
		}
	}
	last := len(w.in.Snaps) - 1
	full := w.got[last][0]
	// The levels=1 read is exactly the head of the full read.
	n, err := zmesh.LevelPrefixCells(w.m, 1)
	if err != nil {
		return err
	}
	if w.levels.Levels != 1 || len(w.levels.Values) != n {
		return fmt.Errorf("levels=1 read delivered %d levels, %d values; want 1, %d", w.levels.Levels, len(w.levels.Values), n)
	}
	for i, v := range w.levels.Values {
		if math.Float64bits(v) != math.Float64bits(full[i]) {
			return fmt.Errorf("levels=1 value %d differs from the full read", i)
		}
	}
	// Tier bounds strictly decrease and every prefix holds its own bound
	// against the reconstruction the tiers were cut from.
	td := w.tiers
	if len(td.Bounds) != temporalTiers {
		return fmt.Errorf("tiers read delivered %d tiers, want %d", len(td.Bounds), temporalTiers)
	}
	for t := 1; t <= len(td.Bounds); t++ {
		if t > 1 && !(td.Bounds[t-1] < td.Bounds[t-2]) {
			return fmt.Errorf("tier bounds do not strictly decrease: %v", td.Bounds)
		}
		prefix := td.Values
		if t < len(td.Bounds) {
			if prefix, err = td.DecodePrefix(t); err != nil {
				return err
			}
		}
		if err := checkWithin(fmt.Sprintf("tier prefix %d", t), full, prefix, td.Bounds[t-1]); err != nil {
			return err
		}
	}
	delete(w.ckpt, k)
	return nil
}

func (w *temporal3d) rawPerOp() int64 {
	return int64(8 * len(w.in.Snaps) * len(w.in.Names) * w.in.cells())
}

// readRawPerOp adds the coarse prefix and the tiered snapshot to the full
// reads of every snapshot.
func (w *temporal3d) readRawPerOp() int64 {
	n, _ := zmesh.LevelPrefixCells(w.m, 1)
	return w.rawPerOp() + int64(8*(n+w.in.cells()))
}

func (w *temporal3d) storedBytes(k int) int64 { return w.frames[k] }

func (w *temporal3d) callsPerOp() (int, int) {
	return 2 + len(w.in.Snaps)*len(w.in.Names), len(w.in.Snaps)*len(w.in.Names) + 2
}

func (w *temporal3d) layers() *layerInput {
	snaps := make([]int, len(w.in.Snaps))
	for i := range snaps {
		snaps[i] = i
	}
	return &layerInput{series: w.in, snaps: snaps, opt: w.opt, temporal: true, framed: true}
}
