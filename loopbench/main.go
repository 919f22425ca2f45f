// Command loopbench is zmeshd's loopback benchmark. It starts a real zmeshd,
// drives it over loopback TCP with the public client package (one
// closed-loop client: one goroutine, one keep-alive connection), checks
// every output against its own inputs, and prints one JSON result line.
//
// Run it through run.sh, which builds zmeshd and this command first:
//
//	bash loopbench/run.sh --workload ckpt3d-sz --seed 1 --seconds 10 --trace 0
//	bash loopbench/run.sh gen --seed 1            # regenerate the seed's inputs
//	bash loopbench/run.sh steady --runs 10        # steadiness report
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs a traced pass and
// the in-process layer replays and prints the per-layer metrics. See
// README.md for the workloads, the metrics and the reference figures.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/client"
)

// buildDir holds everything the benchmark writes, relative to the checkout
// root run.sh changes into.
const buildDir = ".bench_build"

// zmeshdBin is where run.sh builds the daemon.
var zmeshdBin = filepath.Join(buildDir, "bin", "zmeshd")

// workloadDef names a workload and fixes its work per run.
type workloadDef struct {
	name string
	// opsPerSecond turns --seconds into the run's fixed op count: the
	// write+read op pairs that take about one second of timed ops on the
	// reference host (the inverse of its median write p50 + read p50).
	opsPerSecond float64
	// segments is how many daemons an untraced run sets up and spreads its
	// ops over; setup_s is the median of their set-ups.
	segments int
	load     func(seed int64) (workload, error)
}

var workloads = []workloadDef{
	{name: "ckpt3d-sz", opsPerSecond: 7.5, segments: 10, load: func(seed int64) (workload, error) {
		s, err := loadOrGenerate("sedov3d", seed, false, generate3D)
		if err != nil {
			return nil, err
		}
		return newCkpt3D(s), nil
	}},
	{name: "fields2d-auto-sz", opsPerSecond: 5, segments: 10, load: func(seed int64) (workload, error) {
		s, err := loadOrGenerate("sedov2d", seed, false, generate2D)
		if err != nil {
			return nil, err
		}
		return newFields2D(s), nil
	}},
	{name: "temporal3d-zfp", opsPerSecond: 0.85, segments: 5, load: func(seed int64) (workload, error) {
		s, err := loadOrGenerate("sedov3d", seed, false, generate3D)
		if err != nil {
			return nil, err
		}
		return newTemporal3D(s)
	}},
}

func lookupWorkload(name string) (*workloadDef, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// warmupOps run after each set-up's cold op and before timing, so pools and
// GC pacing settle too; the cold op already filled the encoder, recipe and
// TAC-plan caches.
const warmupOps = 1

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "gen":
			exitOn(genMain(os.Args[2:]))
			return
		case "steady":
			exitOn(steadyMain(os.Args[2:]))
			return
		case "idle-load":
			exitOn(idleLoadMain())
			return
		}
	}
	var (
		name    = flag.String("workload", "", "workload name (required)")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "run length; fixes the op count")
		trace   = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	)
	flag.Parse()
	def, err := lookupWorkload(*name)
	if err != nil {
		exitOn(err)
	}
	res, err := run(def, *seed, *seconds, *trace == 1, zmeshdBin)
	if err != nil {
		exitOn(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		exitOn(err)
	}
	fmt.Println(string(b))
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "loopbench: %v\n", err)
		os.Exit(1)
	}
}

func genMain(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "input seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s2, err := loadOrGenerate("sedov2d", *seed, true, generate2D)
	if err != nil {
		return err
	}
	fmt.Printf("sedov2d seed %d: %d cells x %d quantities, t=%.5f, generated in %.1f s\n",
		*seed, s2.Fields.cells(), len(s2.Fields.Names), s2.Fields.Times[0], s2.GenSecs)
	s3, err := loadOrGenerate("sedov3d", *seed, true, generate3D)
	if err != nil {
		return err
	}
	fmt.Printf("sedov3d seed %d: checkpoint %d cells x %d quantities; temporal %d cells x %d quantities at t=%.5v; generated in %.1f s\n",
		*seed, s3.Ckpt.cells(), len(s3.Ckpt.Names), s3.Temporal.cells(), len(s3.Temporal.Names), s3.Temporal.Times, s3.GenSecs)
	return nil
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner holds one run's state.
type runner struct {
	w      workload
	bin    string
	runDir string
	k      int // next op index; unique across set-up, warm-up and passes
	d      *daemon
	cl     *client.Client
	ctx    context.Context
}

func run(def *workloadDef, seed int64, seconds int, traced bool, bin string) (*result, error) {
	if seconds < 1 {
		return nil, errors.New("--seconds must be at least 1")
	}
	w, err := def.load(seed)
	if err != nil {
		return nil, fmt.Errorf("loading inputs: %w", err)
	}
	cpuMs, memMs := hostProbe()
	fmt.Printf("loopbench: host probe %.3f ms cpu, %.3f ms mem (fixed kernels, diagnostic only)\n", cpuMs, memMs)
	stopIdle, err := startIdleLoad()
	if err != nil {
		return nil, err
	}
	defer stopIdle()

	runDir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	r := &runner{w: w, bin: bin, runDir: runDir, ctx: context.Background()}
	defer func() {
		if r.d != nil {
			r.d.stop()
		}
	}()

	// The untraced run spreads its ops over several daemon processes, one
	// after another: the same ops on one daemon repeat within about 3%, but
	// a fresh daemon process can run them 10-25% slower or faster for the
	// whole of its life, and averaging over processes keeps that out of the
	// run-to-run spread. The traced run compares its traced and untraced
	// passes on one daemon.
	segments := def.segments
	if traced {
		segments = 1
	}
	perSegment := int(math.Ceil(float64(seconds) * def.opsPerSecond / float64(segments)))
	steal0, total0 := cpuTicks()
	var setupTimes []float64
	plain := &passResult{}
	for i := 0; i < segments; i++ {
		d, err := r.setup(i)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setupTimes = append(setupTimes, d.Seconds())
		for j := 0; j < warmupOps; j++ {
			if err := r.roundTrip(nil); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		p, err := r.pass(nil, perSegment)
		if err != nil {
			return nil, err
		}
		plain.add(p)
		if i < segments-1 {
			r.d.stop()
			r.d = nil
		}
	}
	if steal1, total1 := cpuTicks(); total1 > total0 {
		steal := 100 * float64(steal1-steal0) / float64(total1-total0)
		note := "diagnostic only"
		if steal > disturbedStealPct {
			note = "host-disturbed: this run's timings do not resolve a program change"
		}
		fmt.Printf("loopbench: host steal %.2f%% of machine CPU time during the segments (%s)\n", steal, note)
	}
	res := &result{Correct: plain.runChecksOK(), Attempted: plain.attempted, Failed: plain.failed, Metrics: map[string]metric{}}
	if !traced {
		r.endToEnd(res, plain, setupTimes)
		return res, nil
	}
	tr := newTracer()
	r.cl = client.New(r.d.base, client.WithHTTPClient(&http.Client{Transport: tr.transport(http.DefaultTransport)}))
	tpass, err := r.pass(tr, perSegment)
	if err != nil {
		return nil, err
	}
	res.Correct = res.Correct && tpass.runChecksOK()
	res.Attempted += tpass.attempted
	res.Failed += tpass.failed
	if err := r.perLayer(res, plain, tpass, tr); err != nil {
		return nil, err
	}
	tracePath := filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.json", def.name, seed))
	if err := tr.writeJSON(tracePath); err != nil {
		return nil, err
	}
	fmt.Printf("loopbench: %d spans written to %s\n", len(tr.spans), tracePath)
	return res, nil
}

// setup starts a fresh daemon and times exec → ready → mesh registration →
// the first (cold) write op and read op.
func (r *runner) setup(i int) (time.Duration, error) {
	storeDir := ""
	if r.w.needsStore() {
		storeDir = filepath.Join(r.runDir, fmt.Sprintf("store-%d", i))
	}
	k := r.k
	r.k++
	if err := r.w.prepareWrite(k); err != nil {
		return 0, err
	}
	t0 := time.Now()
	d, err := startDaemon(r.bin, storeDir)
	if err != nil {
		return 0, err
	}
	r.d = d
	r.cl = client.New(d.base)
	if err := r.w.register(r.ctx, r.cl, nil); err != nil {
		return 0, fmt.Errorf("registering: %w", err)
	}
	if err := r.w.write(r.ctx, r.cl, nil, k); err != nil {
		return 0, fmt.Errorf("cold write: %w", err)
	}
	// The write's check runs before the read because it also records what
	// the read needs (and it does no I/O).
	if err := r.w.checkWrite(k); err != nil {
		return 0, fmt.Errorf("cold write: %w", err)
	}
	if err := r.w.read(r.ctx, r.cl, nil, k); err != nil {
		return 0, fmt.Errorf("cold read: %w", err)
	}
	el := time.Since(t0)
	if err := r.w.checkRead(k); err != nil {
		return 0, fmt.Errorf("cold read: %w", err)
	}
	return el, nil
}

// roundTrip runs one untimed, checked write+read op.
func (r *runner) roundTrip(tr *tracer) error {
	k := r.k
	r.k++
	if err := r.w.prepareWrite(k); err != nil {
		return err
	}
	if err := r.w.write(r.ctx, r.cl, tr, k); err != nil {
		return err
	}
	if err := r.w.checkWrite(k); err != nil {
		return err
	}
	if err := r.w.read(r.ctx, r.cl, tr, k); err != nil {
		return err
	}
	return r.w.checkRead(k)
}

// passResult is one timed write phase followed by one timed read phase.
type passResult struct {
	writeDur, readDur []time.Duration // successful ops only
	attempted, failed int
	writesOK, readsOK int
	stored            int64
	cpuWrite, cpuRead time.Duration
	alloc             uint64 // zmeshd's TotalAlloc over the pass
	v0, v1, v2        *vars  // before writes, after writes, after reads
	ops               []opDelta
	errs              []string
	buildsMoved       bool
	dedupHits         int64

	// writeMBps and readMBps hold one throughput per daemon: raw MB of the
	// phase's successful ops ÷ their summed op time.
	writeMBps, readMBps []float64
}

// opDelta is one traced op's share of zmeshd's counters and timers.
type opDelta struct {
	id     int
	write  bool
	before *vars
	after  *vars
}

// add pools another daemon's pass into p. Scrapes are per daemon, so the
// pooled result keeps the last daemon's (a traced run has only one).
func (p *passResult) add(q *passResult) {
	p.writeDur = append(p.writeDur, q.writeDur...)
	p.readDur = append(p.readDur, q.readDur...)
	p.writeMBps = append(p.writeMBps, q.writeMBps...)
	p.readMBps = append(p.readMBps, q.readMBps...)
	p.attempted += q.attempted
	p.failed += q.failed
	p.writesOK += q.writesOK
	p.readsOK += q.readsOK
	p.stored += q.stored
	p.cpuWrite += q.cpuWrite
	p.cpuRead += q.cpuRead
	p.alloc += q.alloc
	p.buildsMoved = p.buildsMoved || q.buildsMoved
	p.dedupHits += q.dedupHits
	p.v0, p.v1, p.v2 = q.v0, q.v1, q.v2
}

func (p *passResult) runChecksOK() bool {
	return !p.buildsMoved && p.dedupHits == 0
}

func (p *passResult) fail(format string, a ...any) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, fmt.Sprintf(format, a...))
	}
}

// pass runs n write ops, then reads each back. Each op is timed alone;
// checks and (when traced) the per-op scrapes run between op timers.
func (r *runner) pass(tr *tracer, n int) (*passResult, error) {
	p := &passResult{}
	first := r.k
	r.k += n
	var err error
	if p.v0, err = r.d.scrape(r.ctx); err != nil {
		return nil, err
	}
	cpu0, err := r.d.cpuTime()
	if err != nil {
		return nil, err
	}
	okWrite := make([]bool, n)
	for i := 0; i < n; i++ {
		k := first + i
		p.attempted++
		if err := r.w.prepareWrite(k); err != nil {
			return nil, err
		}
		dur, err := r.timedOp(tr, p, 2*k, true, func() error { return r.w.write(r.ctx, r.cl, tr, k) })
		if err == nil {
			err = r.w.checkWrite(k)
		}
		if err != nil {
			p.fail("write op %d: %v", k, err)
			continue
		}
		okWrite[i] = true
		p.writesOK++
		p.writeDur = append(p.writeDur, dur)
		p.stored += r.w.storedBytes(k)
	}
	cpu1, err := r.d.cpuTime()
	if err != nil {
		return nil, err
	}
	if p.v1, err = r.d.scrape(r.ctx); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		k := first + i
		p.attempted++
		if !okWrite[i] {
			p.fail("read op %d: its write failed", k)
			continue
		}
		dur, err := r.timedOp(tr, p, 2*k+1, false, func() error { return r.w.read(r.ctx, r.cl, tr, k) })
		if err == nil {
			err = r.w.checkRead(k)
		}
		if err != nil {
			p.fail("read op %d: %v", k, err)
			continue
		}
		p.readsOK++
		p.readDur = append(p.readDur, dur)
	}
	cpu2, err := r.d.cpuTime()
	if err != nil {
		return nil, err
	}
	if p.v2, err = r.d.scrape(r.ctx); err != nil {
		return nil, err
	}
	p.cpuWrite, p.cpuRead = cpu1-cpu0, cpu2-cpu1
	if p.writesOK > 0 {
		p.writeMBps = []float64{float64(r.w.rawPerOp()) * float64(p.writesOK) / 1e6 / sumDur(p.writeDur).Seconds()}
	}
	if p.readsOK > 0 {
		p.readMBps = []float64{float64(r.w.readRawPerOp()) * float64(p.readsOK) / 1e6 / sumDur(p.readDur).Seconds()}
	}
	p.alloc = p.v2.Mem.TotalAlloc - p.v0.Mem.TotalAlloc
	// Run-level checks: set-up built every recipe, and no frame of this
	// run's distinct values deduplicated in the store.
	p.buildsMoved = p.v2.counter("recipe.builds") != p.v0.counter("recipe.builds")
	p.dedupHits = p.v2.counter("server.store.dedup_hits")
	if p.buildsMoved {
		fmt.Fprintf(os.Stderr, "loopbench: recipe.builds moved during the timed pass (%d -> %d)\n",
			p.v0.counter("recipe.builds"), p.v2.counter("recipe.builds"))
	}
	if p.dedupHits != 0 {
		fmt.Fprintf(os.Stderr, "loopbench: %d store dedup hits, want 0\n", p.dedupHits)
	}
	for _, e := range p.errs {
		fmt.Fprintf(os.Stderr, "loopbench: FAILED %s\n", e)
	}
	return p, nil
}

// timedOp times one op; traced, it also scrapes zmeshd around it. The
// benchmark first collects its own garbage, so that its collector (the
// previous op's checks allocate) does not run inside the op's timer.
func (r *runner) timedOp(tr *tracer, p *passResult, id int, write bool, op func() error) (time.Duration, error) {
	runtime.GC()
	var before *vars
	if tr != nil {
		var err error
		if before, err = r.d.scrape(r.ctx); err != nil {
			return 0, err
		}
	}
	name := "read"
	if write {
		name = "write"
	}
	tr.startOp(id, name)
	t0 := time.Now()
	err := op()
	dur := time.Since(t0)
	tr.endOp()
	if tr != nil && err == nil {
		after, serr := r.d.scrape(r.ctx)
		if serr != nil {
			return 0, serr
		}
		p.ops = append(p.ops, opDelta{id: id, write: write, before: before, after: after})
	}
	return dur, err
}

// endToEnd fills the --trace 0 metrics from the untraced pass.
func (r *runner) endToEnd(res *result, p *passResult, setupTimes []float64) {
	raw := float64(r.w.rawPerOp())
	wrote := raw * float64(p.writesOK)
	readB := float64(r.w.readRawPerOp()) * float64(p.readsOK)
	mb := (wrote + readB) / 1e6
	res.Metrics["setup_s"] = metric{median(setupTimes), "s"}
	res.Metrics["write_p50_ms"] = metric{ms(medianDur(p.writeDur)), "ms"}
	res.Metrics["write_mbps"] = metric{median(p.writeMBps), "MB/s"}
	res.Metrics["read_p50_ms"] = metric{ms(medianDur(p.readDur)), "ms"}
	res.Metrics["read_mbps"] = metric{median(p.readMBps), "MB/s"}
	res.Metrics["ratio"] = metric{wrote / float64(p.stored), "x"}
	res.Metrics["zmeshd_cpu_ms_per_mb"] = metric{ms(p.cpuWrite+p.cpuRead) / mb, "ms/MB"}
	res.Metrics["zmeshd_alloc_b_per_b"] = metric{float64(p.alloc) / (wrote + readB), "B/B"}
	fmt.Printf("loopbench: setup %s\n", fmtSeconds(setupTimes))
	fmt.Printf("loopbench: write %s\n", tails(p.writeDur))
	fmt.Printf("loopbench: read  %s\n", tails(p.readDur))
}

func fmtSeconds(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(s, " ") + "] s"
}

// tails reports the median and the highest percentile with at least ten
// samples beyond it, with the sample count (no tail below 40 samples).
func tails(d []time.Duration) string {
	if len(d) == 0 {
		return "n=0"
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := fmt.Sprintf("n=%d p50=%.3f ms", len(s), ms(medianDur(s)))
	if len(s) >= 40 {
		p := 100 * float64(len(s)-10) / float64(len(s))
		idx := len(s) - 11
		out += fmt.Sprintf(" p%.0f=%.3f ms (10 samples beyond) max=%.3f ms", math.Floor(p), ms(s[idx]), ms(s[len(s)-1]))
	}
	return out
}
