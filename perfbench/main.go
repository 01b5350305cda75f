// Command perfbench is the repository's benchmark: compliance
// workloads, each a closed loop with one client, driven only through
// the program's public packages and checked against the benchmark's
// own model. Without tracing it prints the end-to-end metrics; with
// --trace 1 it prints the per-layer breakdown instead. See README.md.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload wcus-psys --seed 1 --seconds 35 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 35 --trace 1
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/datacase/datacase/internal/loadgen"
)

var stdout, stderr io.Writer = os.Stdout, os.Stderr

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "how long one run measures, in whole rounds")
	trace := fs.Int("trace", 0, "1 prints the traced per-layer metrics instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else if w, ok := findWorkload(*name); ok {
		ws = []workload{w}
	} else {
		return fmt.Errorf("unknown workload %q", *name)
	}
	printHost()
	budget := time.Duration(*seconds) * time.Second
	for _, w := range ws {
		if err := runWorkload(w, *seed, budget, *trace == 1); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return nil
}

// runWorkload measures one workload. The over-the-wire workloads run
// with GOMAXPROCS=1: their client, gateway and two servers hand every
// operation across four goroutines and run the GC beside them, so on
// both vCPUs of a small shared host each hand-off waits on whatever
// else the host runs, and the latency tail measured the neighbours
// rather than the program. With a one-vCPU busy loop beside the run,
// wpro-wire's p99_us went from 0.95 to 3.5 ms on two Ps, and from 2.09
// to 2.14 ms on one.
func runWorkload(w workload, seed int64, budget time.Duration, traced bool) error {
	if w.overWire {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	fmt.Fprintf(stdout, "# %s: GOMAXPROCS=%d\n", w.name, runtime.GOMAXPROCS(0))
	if traced {
		return runTraced(w, seed, budget)
	}
	return runPlain(w, seed, budget)
}

// printHost records where and how the figures were taken.
func printHost() {
	gogc, memlimit := os.Getenv("GOGC"), os.Getenv("GOMEMLIMIT")
	fmt.Fprintf(stdout, "# host: go=%s GOMAXPROCS=%d nproc=%d cpu=%q commit=%s GOGC=%q GOMEMLIMIT=%q\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), commit(), gogc, memlimit)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git, if there is one.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return ref
	}
	id, err := os.ReadFile(filepath.Join(".git", ref))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(id))
}

// round is one measured round's raw figures.
type round struct {
	setup    time.Duration
	wall     time.Duration
	ops      int
	failed   int
	hist     *loadgen.Histogram
	p0, p1   procSample
	l0, l1   layerSample
	space    float64
	liveHeap uint64
	sc       scenarioStats
	checkErr error
	replay   replayStats
	spans    spanStats
}

// runRound opens a fresh deployment, preloads it, runs the round's
// fixed operations and checks the end state. With tr set, the timing
// decorators are installed and the program's unwrappable layers are
// replayed on the round's inputs afterwards. With pin set, the client
// runs on one OS thread for the measured phase: in process the traced
// run pins both rounds of a pair, so the trace can tell the client's
// own policy and audit spans from the async audit drainer's and the
// overhead compares like with like. Over the wire every span belongs to
// the operation in flight, and pinning would only add a thread hand-off
// to each reply, so neither round is pinned.
func runRound(w workload, seed int64, tr *tracer, pin bool) (round, error) {
	var r round
	sc := w.scenario(seed)
	defer sc.close()
	p := w.profile()
	if tr != nil {
		instrument(&p, tr)
	}
	runtime.GC()
	t0 := time.Now()
	if err := sc.setup(p, tr); err != nil {
		return r, fmt.Errorf("setup: %w", err)
	}
	r.setup = time.Since(t0)

	runtime.GC()
	var err error
	r.l0 = sampleLayers(sc.dbs())
	if r.p0, err = sampleProc(); err != nil {
		return r, err
	}
	c := &opClock{hist: new(loadgen.Histogram), tr: tr}
	if pin {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
	}
	if tr != nil {
		tr.reset()
	}
	t0 = time.Now()
	r.failed = sc.run(c)
	r.wall = time.Since(t0)
	if r.p1, err = sampleProc(); err != nil {
		return r, err
	}
	r.l1 = sampleLayers(sc.dbs()) // flushes the async audit sink
	r.ops, r.hist = int(c.n), c.hist
	if tr != nil {
		r.spans = tr.analyse(w.overWire)
	}

	r.checkErr = sc.finish()
	r.sc = sc.stats()
	r.space = spaceFactor(sc.dbs())
	if tr != nil {
		if r.replay, err = replay(sampleInputs(sc.dbs(), sc.model(), p)); err != nil {
			return r, fmt.Errorf("replay: %w", err)
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.liveHeap = ms.HeapAlloc
	runtime.KeepAlive(sc)
	return r, nil
}

// endToEndOf computes one round's end-to-end figures.
func endToEndOf(r round) map[string]float64 {
	return map[string]float64{
		"setup_s":            r.setup.Seconds(),
		"ops_per_s":          ratio(float64(r.ops), r.wall.Seconds()),
		"p50_us":             float64(r.hist.Quantile(0.50)) / 1e3,
		"p99_us":             float64(r.hist.Quantile(0.99)) / 1e3,
		"cpu_us_per_op":      ratio(float64((r.p1.cpu - r.p0.cpu).Microseconds()), float64(r.ops)),
		"alloc_bytes_per_op": perOp(r.p1.totalAlloc-r.p0.totalAlloc, r.ops),
		"space_factor":       r.space,
		"live_heap_mb":       float64(r.liveHeap) / 1e6,
	}
}

// layerOf computes one traced round's per-layer figures.
func layerOf(r round) map[string]float64 {
	ops := r.ops
	l0, l1 := r.l0, r.l1
	inner := l1.inner - l0.inner
	out := map[string]float64{
		"wire.read_syscalls_per_op":         perOp(r.p1.syscr-r.p0.syscr, ops),
		"wire.write_syscalls_per_op":        perOp(r.p1.syscw-r.p0.syscw, ops),
		"wire.bytes_per_op":                 perOp(r.p1.rchar-r.p0.rchar+r.p1.wch-r.p0.wch, ops),
		"wire.self_us":                      r.spans.wireSelf,
		"wire.backend_us":                   r.spans.backend,
		"compliance.rest_us":                r.spans.restUs,
		"compliance.vacuum_fulls_per_kop":   perKop(l1.ops.VacuumFulls-l0.ops.VacuumFulls, ops),
		"compliance.vacuums_per_kop":        perKop(l1.ops.Vacuums-l0.ops.Vacuums, ops),
		"compliance.cascade_deletes_per_op": perOp(l1.ops.CascadeDeletes-l0.ops.CascadeDeletes, ops),
		"policy.checks_per_op":              perOp(l1.checks-l0.checks, ops),
		"policy.cache_hit_ratio":            ratio(float64(l1.cacheHit-l0.cacheHit), float64(l1.checks-l0.checks)),
		"policy.cache_invalidations_per_op": perOp(l1.invalid-l0.invalid, ops),
		"policy.policies_scanned_per_check": perOp(l1.scanned-l0.scanned, int(inner)),
		"policy.guards_per_check":           perOp(l1.guards-l0.guards, int(inner)),
		"policy.adjudicate_ns":              r.spans.allowNs,
		"audit.log_bytes_per_op":            ratio(float64(l1.logBytes-l0.logBytes), float64(ops)),
		"audit.entries_per_op":              ratio(float64(r.spans.entries), float64(ops)),
		"audit.log_ns":                      r.spans.logNs,
		"audit.erase_unit_us":               r.spans.eraseUnitUs,
		"storage.lookups_per_op":            perOp(l1.lookups-l0.lookups-r.sc.harnessLookups, ops),
		"storage.scans_per_op":              perOp(l1.scans-l0.scans, ops),
		"storage.rows_examined_per_result":  ratio(float64(r.sc.examined), float64(r.sc.results)),
		"storage.entries_reclaimed_per_op":  perOp(l1.reclaim-l0.reclaim, ops),
		"storage.dead_bytes_ratio":          ratio(float64(l1.dead), float64(l1.live+l1.dead)),
		"wal.appends_per_op":                perOp(l1.appends-l0.appends, ops),
		"wal.syncs_per_op":                  perOp(l1.syncs-l0.syncs, ops),
		"wal.bytes_per_op":                  ratio(float64(l1.walBytes-l0.walBytes), float64(ops)),
		"runtime.mallocs_per_op":            perOp(r.p1.mallocs-r.p0.mallocs, ops),
		"runtime.gc_per_kop":                perKop(uint64(r.p1.numGC-r.p0.numGC), ops),
	}
	for k, v := range r.replay {
		out[k] = v
	}
	return out
}

// overRounds takes each metric's interquartile mean over the rounds.
func overRounds(rounds []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k := range rounds[0] {
		vs := make([]float64, len(rounds))
		for i, r := range rounds {
			vs[i] = r[k]
		}
		out[k] = midMean(vs)
	}
	return out
}

// tally adds up attempted and failed operations. A failed operation is
// one whose answer differs from the model, so any of them, like a failed
// end check, makes the run incorrect.
type tally struct {
	attempted, failed int
	correct           bool
	samples           uint64
	present, erased   int
}

func (t *tally) add(w workload, r round) {
	t.attempted += r.ops
	t.failed += r.failed
	t.samples += r.hist.Count()
	t.present += r.sc.present
	t.erased += r.sc.erasedRows
	if r.failed > 0 {
		t.correct = false
	}
	if r.checkErr != nil {
		t.correct = false
		fmt.Fprintf(stderr, "# %s: end check failed: %v\n", w.name, r.checkErr)
	}
}

func (t *tally) summary(w workload, rounds int) {
	fmt.Fprintf(stdout, "# %s: rounds=%d samples=%d attempted=%d failed=%d erased_rows_still_present=%d/%d\n",
		w.name, rounds, t.samples, t.attempted, t.failed, t.present, t.erased)
}

// runPlain measures the end-to-end metrics: whole rounds until the
// budget is spent, each metric the interquartile mean over the rounds.
func runPlain(w workload, seed int64, budget time.Duration) error {
	start := time.Now()
	t := tally{correct: true}
	var figs []map[string]float64
	for len(figs) == 0 || time.Since(start) < budget {
		r, err := runRound(w, seed, nil, false)
		if err != nil {
			return err
		}
		t.add(w, r)
		f := endToEndOf(r)
		figs = append(figs, f)
		fmt.Fprintf(stdout, "# round %d: setup_s=%.4f ops_per_s=%.1f p50_us=%.2f p99_us=%.2f cpu_us_per_op=%.2f alloc_bytes_per_op=%.0f\n",
			len(figs), f["setup_s"], f["ops_per_s"], f["p50_us"], f["p99_us"], f["cpu_us_per_op"], f["alloc_bytes_per_op"])
	}
	t.summary(w, len(figs))
	return report(stdout, endToEnd, overRounds(figs), t.correct, t.attempted, t.failed)
}

// runTraced measures the per-layer metrics. It alternates an untraced
// and a traced round on the same inputs until the budget is spent: the
// program's exact counters must agree between the two, and the ratio
// of their CPU per operation is the tracing overhead.
func runTraced(w workload, seed int64, budget time.Duration) error {
	start := time.Now()
	t := tally{correct: true}
	var figs []map[string]float64
	var plainCPU, tracedCPU []float64
	for len(figs) == 0 || time.Since(start) < budget {
		pin := !w.overWire
		plain, err := runRound(w, seed, nil, pin)
		if err != nil {
			return err
		}
		tr := newTracer()
		traced, err := runRound(w, seed, tr, pin)
		if err != nil {
			return err
		}
		t.add(w, plain)
		t.add(w, traced)
		a, b := plain.l1.exact(), traced.l1.exact()
		a0, b0 := plain.l0.exact(), traced.l0.exact()
		for k := range a {
			if a[k]-a0[k] != b[k]-b0[k] {
				t.correct = false
				fmt.Fprintf(stderr, "# %s: counter %s is %d untraced but %d traced\n",
					w.name, k, a[k]-a0[k], b[k]-b0[k])
			}
		}
		plainCPU = append(plainCPU, endToEndOf(plain)["cpu_us_per_op"])
		tracedCPU = append(tracedCPU, endToEndOf(traced)["cpu_us_per_op"])
		figs = append(figs, layerOf(traced))
		path := filepath.Join(".bench_build", fmt.Sprintf("trace-%s-seed%d.csv", w.name, seed))
		if err := tr.write(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	t.summary(w, 2*len(figs))
	out := overRounds(figs)
	out["trace.cpu_overhead_ratio"] = ratio(midMean(tracedCPU), midMean(plainCPU))
	fmt.Fprintf(stdout, "# %s: tracing overhead: cpu_us_per_op %.2f traced vs %.2f untraced\n",
		w.name, midMean(tracedCPU), midMean(plainCPU))
	return report(stdout, perLayer, out, t.correct, t.attempted, t.failed)
}
