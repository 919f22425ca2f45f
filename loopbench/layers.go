package main

// Per-layer metrics of the traced run. Three sources feed them:
//   - the traced pass: span self times (bench, client, http) and per-op
//     deltas of zmeshd's own timers and counters (server, stages, store);
//   - the untraced pass: zmeshd's runtime figures over the timed phases;
//   - in-process replays: the benchmark calls each layer's public functions
//     on the workload's own op (its snapshot's streams, in the pipeline's
//     order) and times them. Only layers on the workload's path are
//     replayed; the metrics of a layer off its path read 0.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	zmesh "repro"
	"repro/internal/compress"
	"repro/internal/compress/multilevel"
	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/wire"
)

// layerInput is what one op writes, for the replays.
type layerInput struct {
	series   *series
	snaps    []int // snapshots one op writes
	opt      zmesh.Options
	winners  []zmesh.Layout // auto picks per quantity (fields2d-auto-sz)
	temporal bool           // sessions, temporal frames, the store and tiers reads
	framed   bool           // batch and chunk framing on the wire
}

// replayReps is how many times each replay repeats (the median is kept);
// fewer for the 168k-cell 3-D streams so the traced run stays short.
func replayReps(cells int) int {
	if cells > 50_000 {
		return 3
	}
	return 7
}

func medianOf(reps int, fn func() error) (time.Duration, error) {
	d := make([]time.Duration, reps)
	for i := range d {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d[i] = time.Since(t0)
	}
	return medianDur(d), nil
}

// latencyNs sums every server.<endpoint>.latency timer.
func (v *vars) latencyNs() int64 {
	var n int64
	for name, t := range v.Tel.Timers {
		if strings.HasPrefix(name, "server.") && strings.HasSuffix(name, ".latency") {
			n += t.TotalNs
		}
	}
	return n
}

var stageTimers = []struct{ metric, timer string }{
	{"encode.stage.flatten_ms", "encode.stage.flatten"},
	{"encode.stage.reorder_ms", "encode.stage.reorder"},
	{"encode.stage.codec_ms", "encode.stage.codec."},
	{"encode.stage.wrap_ms", "encode.stage.wrap"},
	{"decode.stage.unwrap_ms", "decode.stage.unwrap"},
	{"decode.stage.codec_ms", "decode.stage.codec."},
	{"decode.stage.restore_ms", "decode.stage.restore"},
}

func (v *vars) stageNs(timer string) int64 {
	if strings.HasSuffix(timer, ".") {
		return v.timerPrefixNs(timer)
	}
	return v.timerNs(timer)
}

// perLayer fills the --trace 1 metrics.
func (r *runner) perLayer(res *result, plain, tp *passResult, tr *tracer) error {
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	raw := float64(r.w.rawPerOp())
	rawRead := float64(r.w.readRawPerOp())
	callsW, callsR := r.w.callsPerOp()

	// Span self times and per-op zmeshd deltas, by op kind.
	type side struct {
		n                                int
		op, client, http, server, stages time.Duration
		stage                            map[string]time.Duration
		requests                         int
		wire                             int64
	}
	sides := map[bool]*side{true: {stage: map[string]time.Duration{}}, false: {stage: map[string]time.Duration{}}}
	times := tr.times()
	for _, od := range tp.ops {
		s, ot := sides[od.write], times[od.id]
		s.n++
		s.op += ot.op
		s.client += ot.client
		s.http += ot.http
		s.requests += ot.requests
		s.wire += ot.wireBytes
		s.server += time.Duration(od.after.latencyNs() - od.before.latencyNs())
		for _, st := range stageTimers {
			d := time.Duration(od.after.stageNs(st.timer) - od.before.stageNs(st.timer))
			s.stage[st.metric] += d
			s.stages += d
		}
	}
	w, rd := sides[true], sides[false]
	if w.n == 0 || rd.n == 0 {
		return fmt.Errorf("traced pass completed no write or no read op")
	}
	ops := float64(w.n + rd.n)
	per := func(d time.Duration, n int) float64 { return ms(d) / float64(n) }

	put("client.requests_per_op", "count", float64(w.requests+rd.requests)/ops)
	put("client.wire_bytes_per_raw_b", "B/B", float64(w.wire+rd.wire)/(raw*float64(w.n)+rawRead*float64(rd.n)))
	put("client.retries_per_op", "count", float64(w.requests+rd.requests-callsW*w.n-callsR*rd.n)/ops)
	put("client.transport_ms_per_op", "ms", ms(w.client+rd.client-w.server-rd.server)/ops)
	put("server.write_ms_per_op", "ms", per(w.server, w.n))
	put("server.read_ms_per_op", "ms", per(rd.server, rd.n))
	put("server.other_ms_per_op", "ms", ms(w.server+rd.server-w.stages-rd.stages)/ops)
	hits := tp.v2.counter("server.cache.hits") - tp.v0.counter("server.cache.hits")
	misses := tp.v2.counter("server.cache.misses") - tp.v0.counter("server.cache.misses")
	hitRatio := 0.0 // no cache lookups at all (temporal sessions bypass the cache)
	if hits+misses > 0 {
		hitRatio = float64(hits) / float64(hits+misses)
	}
	put("server.cache.hit_ratio", "frac", hitRatio)
	for _, st := range stageTimers {
		s := w
		if strings.HasPrefix(st.metric, "decode.") {
			s = rd
		}
		put(st.metric, "ms", per(s.stage[st.metric], s.n))
	}
	// Self time per op of each layer along the blocking path; per side
	// they add up to the mean traced op time.
	for name, s := range map[string]*side{"write": w, "read": rd} {
		put("self."+name+".bench_ms", "ms", per(s.op-s.client, s.n))
		put("self."+name+".client_ms", "ms", per(s.client-s.http, s.n))
		put("self."+name+".http_ms", "ms", per(s.http-s.server, s.n))
		put("self."+name+".server_ms", "ms", per(s.server-s.stages, s.n))
		put("self."+name+".stages_ms", "ms", per(s.stages, s.n))
	}
	untracedW, untracedR := ms(medianDur(plain.writeDur)), ms(medianDur(plain.readDur))
	put("trace.write_p50_ms", "ms", ms(medianDur(tp.writeDur)))
	put("trace.read_p50_ms", "ms", ms(medianDur(tp.readDur)))
	put("trace.overhead_write_pct", "%", 100*(ms(medianDur(tp.writeDur))-untracedW)/untracedW)
	put("trace.overhead_read_pct", "%", 100*(ms(medianDur(tp.readDur))-untracedR)/untracedR)
	put("trace.write_residual_pct", "%", 100*(per(w.op, w.n)-untracedW)/untracedW)
	put("trace.read_residual_pct", "%", 100*(per(rd.op, rd.n)-untracedR)/untracedR)

	// zmeshd's runtime over the untraced pass (two scrapes per phase, so the
	// scrapes' own allocations stay negligible), and its recipe timers,
	// which only move during set-up.
	pops := float64(plain.writesOK + plain.readsOK)
	put("zmeshd.gc_cycles_per_op", "count", float64(plain.v2.Mem.NumGC-plain.v0.Mem.NumGC)/pops)
	put("zmeshd.gc_pause_ms_per_op", "ms", float64(plain.v2.Mem.PauseTotalNs-plain.v0.Mem.PauseTotalNs)/1e6/pops)
	put("zmeshd.mallocs_per_op", "count", float64(plain.v2.Mem.Mallocs-plain.v0.Mem.Mallocs)/pops)
	rss, err := r.d.peakRSSMB()
	if err != nil {
		return err
	}
	put("zmeshd.peak_rss_mb", "MB", rss)
	for _, st := range []string{"recipe.setup", "recipe.sort", "recipe.descent"} {
		put(st+"_ms", "ms", ms(time.Duration(tp.v0.timerNs(st))))
	}
	put("store.objects_per_op", "count", float64(tp.v1.counter("server.store.objects")-tp.v0.counter("server.store.objects"))/float64(w.n))
	put("store.dedup_hits_per_op", "count", float64(tp.v1.counter("server.store.dedup_hits")-tp.v0.counter("server.store.dedup_hits"))/float64(w.n))

	return replayLayers(r.w.layers(), filepath.Join(r.runDir, "replay"), put)
}

// opStream is one value stream of the replayed op.
type opStream struct {
	name   string
	values []float64
}

// replayLayers times each layer's public functions on the workload's op.
func replayLayers(li *layerInput, dir string, put func(name, unit string, v float64)) error {
	m, err := li.series.mesh()
	if err != nil {
		return err
	}
	var op, lastSnap []opStream
	for _, si := range li.snaps {
		for q, name := range li.series.Names {
			op = append(op, opStream{name, li.series.Snaps[si][q]})
		}
	}
	lastSnap = op[len(op)-len(li.series.Names):]
	cells := li.series.cells()
	reps := replayReps(cells)
	var raw int64
	for _, s := range op {
		raw += int64(8 * len(s.values))
	}
	rawMB := float64(raw) / 1e6
	bound := zmesh.RelBound(relBound)

	// internal/core: recipe build, gather/scatter under the op's layouts.
	d, err := medianOf(reps, func() error { _, err := zmesh.NewEncoder(m, li.opt); return err })
	if err != nil {
		return err
	}
	put("recipe.build_ms", "ms", ms(d))
	layoutOf := func(q int) zmesh.Layout {
		if q < len(li.winners) {
			return li.winners[q]
		}
		return li.opt.Layout
	}
	recipes := map[zmesh.Layout]*core.Recipe{}
	for q := range li.series.Names {
		l := layoutOf(q)
		if recipes[l] == nil {
			if recipes[l], err = core.BuildRecipe(m, l, li.opt.Curve); err != nil {
				return err
			}
		}
	}
	ordered := make([][]float64, len(op))
	flat := make([]float64, cells)
	d, err = medianOf(reps, func() error {
		for i, s := range op {
			if ordered[i], err = recipes[layoutOf(i%len(li.series.Names))].ApplyTo(ordered[i], s.values); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	put("core.gather_ms_per_op", "ms", ms(d))
	d, err = medianOf(reps, func() error {
		for i := range op {
			if flat, err = recipes[layoutOf(i%len(li.series.Names))].RestoreTo(flat, ordered[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	put("core.scatter_ms_per_op", "ms", ms(d))
	put("core.gather_mb_per_op", "MB", float64(16*len(op)*cells)/1e6) // computed: 8 B read + 8 B written per value
	boxes := 0
	for q := range li.series.Names {
		if p := recipes[layoutOf(q)].TACPlan(); p != nil {
			boxes += p.NumBoxes()
		}
	}
	put("core.tac_boxes_per_field", "count", float64(boxes)/float64(len(li.series.Names)))

	// The op's codec over its streams in the pipeline's order (zMesh/Hilbert
	// for the 1-D codec call the zmesh layout makes).
	zr, err := core.BuildRecipe(m, zmesh.LayoutZMesh, li.opt.Curve)
	if err != nil {
		return err
	}
	for i, s := range op {
		if ordered[i], err = zr.ApplyTo(ordered[i], s.values); err != nil {
			return err
		}
	}
	for _, codec := range []string{"sz", "zfp"} {
		if codec != li.opt.Codec {
			put(codec+".compress_ms_per_mb", "ms/MB", 0)
			put(codec+".decompress_ms_per_mb", "ms/MB", 0)
			put(codec+".alloc_b_per_b", "B/B", 0)
			if codec == "sz" {
				put("sz.small_call_us", "us", 0)
			}
			continue
		}
		c, err := compress.Get(codec)
		if err != nil {
			return err
		}
		payloads := make([][]byte, len(ordered))
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		dc, err := medianOf(reps, func() error {
			for i, o := range ordered {
				if payloads[i], err = c.Compress(o, []int{len(o)}, bound); err != nil {
					return err
				}
			}
			return nil
		})
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return err
		}
		dd, err := medianOf(reps, func() error {
			for _, p := range payloads {
				if _, err := c.Decompress(p); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		put(codec+".compress_ms_per_mb", "ms/MB", ms(dc)/rawMB)
		put(codec+".decompress_ms_per_mb", "ms/MB", ms(dd)/rawMB)
		put(codec+".alloc_b_per_b", "B/B", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(reps)/float64(raw))
		if codec == "sz" {
			mid := len(ordered[0]) / 2
			window := ordered[0][mid : mid+512]
			ds, err := medianOf(101, func() error { _, err := c.Compress(window, []int{512}, bound); return err })
			if err != nil {
				return err
			}
			put("sz.small_call_us", "us", float64(ds)/1e3)
		}
	}

	if li.opt.Layout == zmesh.LayoutAuto {
		if err := replayAuto(m, li, lastSnap, reps, put); err != nil {
			return err
		}
	} else {
		put("auto.pick_ms_per_field", "ms", 0)
		put("auto.size_vs_best", "x", 0)
	}
	if li.framed {
		if err := replayFraming(op, reps, put); err != nil {
			return err
		}
	} else {
		put("wire.batch_ms_per_op", "ms", 0)
		put("wire.chunk_ms_per_op", "ms", 0)
	}
	if !li.temporal {
		for _, name := range []string{"multilevel.tiers_ms_per_read", "temporal.encode_ms_per_op",
			"temporal.replay_decode_ms_per_read", "store.put_object_ms", "store.put_manifest_ms", "store.get_object_ms"} {
			put(name, "ms", 0)
		}
		put("wire.temporal_frame_us", "us", 0)
		put("wire.manifest_us", "us", 0)
		return nil
	}

	// internal/compress/multilevel: the tiers read (server tiers the last
	// snapshot's first quantity, the client decodes every tier).
	tierValues := lastSnap[0].values
	d, err = medianOf(reps, func() error {
		tiers, err := multilevel.New().CompressProgressive(tierValues, []int{len(tierValues)}, compress.Rel, []float64{0.1, 0.01, 0.001})
		if err != nil {
			return err
		}
		_, err = multilevel.New().DecompressProgressive(tiers)
		return err
	})
	if err != nil {
		return err
	}
	put("multilevel.tiers_ms_per_read", "ms", ms(d))
	frames, tcs, err := replayTemporal(m, li, op, reps, put)
	if err != nil {
		return err
	}
	if err := replayTemporalWire(frames, tcs, reps, put); err != nil {
		return err
	}
	return replayStore(dir, frames, tcs, reps, put)
}

// replayAuto times the auto picker on one snapshot's quantities: an auto
// encode minus the encode under the layout it picked, and its size against
// the smallest full-field candidate.
func replayAuto(m *zmesh.Mesh, li *layerInput, snap []opStream, reps int, put func(string, string, float64)) error {
	opt := li.opt
	opt.Layout = zmesh.LayoutAuto
	auto, err := zmesh.NewEncoder(m, opt)
	if err != nil {
		return err
	}
	cands := map[zmesh.Layout]*zmesh.Encoder{}
	for _, l := range []zmesh.Layout{zmesh.LayoutLevel, zmesh.LayoutSFC, zmesh.LayoutZMesh, zmesh.LayoutTAC} {
		o := li.opt
		o.Layout = l
		if cands[l], err = zmesh.NewEncoder(m, o); err != nil {
			return err
		}
	}
	bound := zmesh.RelBound(relBound)
	var pick time.Duration
	var autoBytes, bestBytes int
	for _, s := range snap {
		var art *zmesh.Compressed
		da, err := medianOf(reps, func() (err error) { art, err = auto.CompressValues(s.name, s.values, bound); return err })
		if err != nil {
			return err
		}
		dw, err := medianOf(reps, func() error { _, err := cands[art.Layout].CompressValues(s.name, s.values, bound); return err })
		if err != nil {
			return err
		}
		pick += da - dw
		autoBytes += len(art.Payload)
		best := -1
		for _, enc := range cands {
			c, err := enc.CompressValues(s.name, s.values, bound)
			if err != nil {
				return err
			}
			if best < 0 || len(c.Payload) < best {
				best = len(c.Payload)
			}
		}
		bestBytes += best
	}
	put("auto.pick_ms_per_field", "ms", ms(pick)/float64(len(snap)))
	put("auto.size_vs_best", "x", float64(autoBytes)/float64(bestBytes))
	return nil
}

// replayTemporal encodes the op as temporal streams (one stream per
// quantity, snapshots in order) and replays the decoding one read op makes
// the server do: each full read of snapshot s replays frames 0..s, and the
// levels and tiers reads each replay the whole stream once more.
func replayTemporal(m *zmesh.Mesh, li *layerInput, op []opStream, reps int, put func(string, string, float64)) ([][]byte, []*zmesh.TemporalCompressed, error) {
	nq := len(li.series.Names)
	fields := make([]*zmesh.Field, len(op))
	for i, s := range op {
		f, err := zmesh.FieldFromValues(m, s.name, s.values)
		if err != nil {
			return nil, nil, err
		}
		fields[i] = f
	}
	bound := zmesh.RelBound(relBound)
	tcs := make([]*zmesh.TemporalCompressed, len(op))
	d, err := medianOf(reps, func() error {
		encs := make([]*zmesh.TemporalEncoder, nq)
		for i, f := range fields {
			q := i % nq
			if encs[q] == nil {
				var err error
				if encs[q], err = zmesh.NewTemporalEncoder(li.opt); err != nil {
					return err
				}
			}
			tc, err := encs[q].CompressSnapshot(f, bound)
			if err != nil {
				return err
			}
			tcs[i] = tc
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	put("temporal.encode_ms_per_op", "ms", ms(d))
	nSnaps := len(op) / nq
	decodeStream := func(q, upto int) error {
		dec := zmesh.NewTemporalDecoder()
		for s := 0; s <= upto; s++ {
			if _, err := dec.DecompressSnapshot(tcs[s*nq+q]); err != nil {
				return err
			}
		}
		return nil
	}
	d, err = medianOf(reps, func() error {
		for q := 0; q < nq; q++ {
			for s := 0; s < nSnaps; s++ {
				if err := decodeStream(q, s); err != nil {
					return err
				}
			}
		}
		for i := 0; i < 2; i++ { // levels=1 and tiers reads of the last snapshot
			if err := decodeStream(0, nSnaps-1); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	put("temporal.replay_decode_ms_per_read", "ms", ms(d))
	frames := make([][]byte, len(tcs))
	for i, tc := range tcs {
		if frames[i], err = wire.EncodeTemporalFrame(frameOf(tc)); err != nil {
			return nil, nil, err
		}
	}
	return frames, tcs, nil
}

func frameOf(tc *zmesh.TemporalCompressed) *wire.TemporalFrame {
	return &wire.TemporalFrame{
		Keyframe: tc.Keyframe, Field: tc.FieldName, Layout: tc.Layout.String(), Curve: tc.Curve, Codec: tc.Codec,
		NumValues: tc.NumValues, Bound: tc.Bound, Structure: tc.Structure, Payload: tc.Payload,
	}
}

func manifestOf(tcs []*zmesh.TemporalCompressed, frames [][]byte) *wire.Manifest {
	mf := &wire.Manifest{}
	byName := map[string]int{}
	for i, tc := range tcs {
		q, ok := byName[tc.FieldName]
		if !ok {
			q = len(mf.Fields)
			byName[tc.FieldName] = q
			mf.Fields = append(mf.Fields, wire.ManifestField{Name: tc.FieldName, Layout: tc.Layout.String(), Curve: tc.Curve, Codec: tc.Codec})
		}
		mf.Fields[q].Frames = append(mf.Fields[q].Frames, wire.ManifestFrame{
			Keyframe: tc.Keyframe, NumValues: tc.NumValues, Bound: tc.Bound, Bytes: int64(len(frames[i])),
			Object: fmt.Sprintf("%064x", i+1),
		})
	}
	return mf
}

// replayFraming times the batch sections and chunk frames of the op's raw
// values.
func replayFraming(op []opStream, reps int, put func(string, string, float64)) error {
	var body bytes.Buffer
	var scratch []byte
	d, err := medianOf(reps, func() error {
		body.Reset()
		bw := wire.NewBatchWriter(&body)
		for _, s := range op {
			scratch = wire.AppendFloats(scratch[:0], s.values)
			if err := bw.WriteSection(s.name, "rel:1e-4", scratch); err != nil {
				return err
			}
		}
		if err := bw.Close(); err != nil {
			return err
		}
		br := wire.NewBatchReader(bytes.NewReader(body.Bytes()), 0)
		var buf []byte
		for {
			_, _, p, err := br.Next(buf)
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			buf = p
		}
	})
	if err != nil {
		return err
	}
	put("wire.batch_ms_per_op", "ms", ms(d))
	var chunked []byte
	d, err = medianOf(reps, func() error {
		chunked = chunked[:0]
		for _, s := range op {
			scratch = wire.AppendFloats(scratch[:0], s.values)
			chunked = wire.AppendChunked(chunked, scratch, wire.DefaultChunkBytes)
		}
		cr := wire.NewChunkReader(bytes.NewReader(chunked))
		var buf []byte
		for {
			p, err := cr.Next(buf)
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			buf = p
		}
		return nil
	})
	if err != nil {
		return err
	}
	put("wire.chunk_ms_per_op", "ms", ms(d))
	return nil
}

// replayTemporalWire times the temporal frames and the checkpoint manifest.
func replayTemporalWire(frames [][]byte, tcs []*zmesh.TemporalCompressed, reps int, put func(string, string, float64)) error {
	d, err := medianOf(reps, func() error {
		for _, tc := range tcs {
			b, err := wire.EncodeTemporalFrame(frameOf(tc))
			if err != nil {
				return err
			}
			if _, err := wire.ParseTemporalFrame(b); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	put("wire.temporal_frame_us", "us", float64(d)/1e3/float64(len(tcs)))
	mf := manifestOf(tcs, frames)
	d, err = medianOf(101, func() error {
		b, err := wire.EncodeManifest(mf)
		if err != nil {
			return err
		}
		_, err = wire.ParseManifest(b)
		return err
	})
	if err != nil {
		return err
	}
	put("wire.manifest_us", "us", float64(d)/1e3)
	return nil
}

// replayStore persists the op's frames and manifest into a fresh store per
// repetition (fresh, so nothing deduplicates), then reads the frames back.
func replayStore(dir string, frames [][]byte, tcs []*zmesh.TemporalCompressed, reps int, put func(string, string, float64)) error {
	defer os.RemoveAll(dir)
	mb, err := wire.EncodeManifest(manifestOf(tcs, frames))
	if err != nil {
		return err
	}
	var puts, gets, manifests []time.Duration
	for rep := 0; rep < reps; rep++ {
		st, err := store.Open(filepath.Join(dir, fmt.Sprint(rep)))
		if err != nil {
			return err
		}
		ids := make([]string, len(frames))
		for i, f := range frames {
			t0 := time.Now()
			id, created, err := st.PutObject(f)
			puts = append(puts, time.Since(t0))
			if err != nil {
				return err
			}
			if !created {
				return fmt.Errorf("replayed frame %d deduplicated in a fresh store", i)
			}
			ids[i] = id
		}
		t0 := time.Now()
		if _, err := st.PutManifest(mb); err != nil {
			return err
		}
		manifests = append(manifests, time.Since(t0))
		for _, id := range ids {
			t0 := time.Now()
			if _, err := st.GetObject(id); err != nil {
				return err
			}
			gets = append(gets, time.Since(t0))
		}
	}
	put("store.put_object_ms", "ms", ms(medianDur(puts)))
	put("store.put_manifest_ms", "ms", ms(medianDur(manifests)))
	put("store.get_object_ms", "ms", ms(medianDur(gets)))
	return nil
}
