// Command perfbench is the repository's benchmark. It runs one named
// workload as a closed loop from one client for a fixed window of host
// time, checks every pass's virtual-time outputs against a stored
// reference, and prints one JSON result line as the last line of
// standard output. All reported times are host time; virtual time is
// only ever compared, never reported. README.md defines the workloads
// and every metric.
//
// Usage, from the root of the repository checkout (run.sh builds the
// command from source and runs it this way):
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics from untraced passes; --trace 1
// reports the per-layer metrics from a traced run.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
	fs.Uint64Var(&o.seed, "seed", 1, "first diffcheck seed of harness-faults; the figure batteries ignore it")
	fs.IntVar(&o.seconds, "seconds", 6, "host seconds of closed-loop passes to measure")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	setupOnly := fs.Bool("setup-only", false, "do the set-up, print \"ready\" and exit (the setup_s timing child)")
	writeRef := fs.String("write-reference", "", "run the fixed batteries once and write their outputs to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o.traced = *traceFlag == 1
	logf := func(format string, args ...any) {
		fmt.Fprintf(stderr, "perfbench: "+format+"\n", args...)
	}

	if *writeRef != "" {
		b, err := newBench(o.seed)
		if err != nil {
			return err
		}
		ref, err := b.buildReference()
		if err != nil {
			return err
		}
		return ref.write(*writeRef)
	}
	if !slices.Contains(workloadNames, o.workload) {
		return fmt.Errorf("--workload %q: want one of %v", o.workload, workloadNames)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", *traceFlag)
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds %d: want at least 1", o.seconds)
	}
	if *setupOnly {
		if _, err := newBench(o.seed); err != nil {
			return err
		}
		_, err := fmt.Fprintln(stdout, "ready")
		return err
	}

	var res *result
	var err error
	if o.traced {
		res, err = tracedRun(o, logf)
	} else {
		res, err = untracedRun(o, logf)
	}
	if err != nil {
		return err
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// maxProblems caps how many failure descriptions a run keeps for stderr.
const maxProblems = 20

// tally accumulates operations attempted and failed across a run. An
// operation is a cell, a diffcheck seed, a replay or a probe run.
type tally struct {
	attempted, failed int
	problems          []string
}

func (t *tally) record(r passResult) {
	t.attempted += r.ops
	t.failed += r.failed
	for _, p := range r.problems {
		if len(t.problems) < maxProblems {
			t.problems = append(t.problems, p)
		}
	}
}

func (t *tally) result(m map[string]metric, logf func(string, ...any)) *result {
	for _, p := range t.problems {
		logf("FAILED: %s", p)
	}
	logf("failed_ops_ratio %.6f (%d of %d operations)", ratio(float64(t.failed), float64(t.attempted)), t.failed, t.attempted)
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
}

// sample is one pass of the measurement window.
type sample struct {
	wall   time.Duration
	rt     runtimeSample
	traced bool
}

// minPasses is the least number of passes a window runs, however long
// they take; peak_rss_mb is read when the last of them ends.
const minPasses = 20

// windowResult is what a measurement window saw.
type windowResult struct {
	samples []sample
	// first holds the counts of the first traced pass.
	first counts
	// rssMB is the peak resident set after the first minPasses passes.
	rssMB float64
}

// window runs closed-loop passes of workload for the given host time,
// and at least minPasses of them: each pass starts when the previous one
// ends. With a tracer, a fixed pseudo-random half of the passes is traced,
// so a pattern that repeats every other pass, such as one GC cycle per two
// passes, cannot bias the traced-to-untraced comparison. Their counts must
// repeat those of the first traced pass exactly.
func (b *bench) window(workload string, d time.Duration, tr *tracer, t *tally) windowResult {
	var w windowResult
	pick := uint64(0x9e3779b97f4a7c15)
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start) < d; i++ {
		pick ^= pick << 13
		pick ^= pick >> 7
		pick ^= pick << 17
		traced := tr != nil && pick>>63 == 1
		var ptr *tracer
		if traced {
			ptr = tr
		}
		rt0 := readRuntime()
		p0 := time.Now()
		r := b.pass(workload, ptr)
		wall := time.Since(p0)
		w.samples = append(w.samples, sample{wall: wall, rt: readRuntime().sub(rt0), traced: traced})
		if traced {
			if w.first == nil {
				w.first = r.counts
			} else if !w.first.equal(r.counts) {
				r.failed = r.ops
				r.problems = append(r.problems, fmt.Sprintf("pass %d: traced counts differ from the first traced pass", i))
			}
		}
		t.record(r)
		if i == minPasses-1 {
			w.rssMB = peakRSSMB()
		}
	}
	return w
}

func walls(samples []sample, traced bool) []float64 {
	var out []float64
	for _, s := range samples {
		if s.traced == traced {
			out = append(out, s.wall.Seconds())
		}
	}
	return out
}

// setupRuns is how many child processes time the set-up; setup_s is
// their median.
const setupRuns = 15

// timeSetups starts the benchmark setupRuns times as a child that only
// does the set-up, and times each from process start until it reports
// that its first pass could begin.
func timeSetups(o options) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupRuns; i++ {
		cmd := exec.Command(exe, "--setup-only", "--workload", o.workload,
			"--seed", strconv.FormatUint(o.seed, 10))
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(pipe).ReadString('\n')
		elapsed := time.Since(start)
		if werr := cmd.Wait(); werr != nil {
			return nil, fmt.Errorf("set-up child: %w", werr)
		}
		if rerr != nil || line != "ready\n" {
			return nil, fmt.Errorf("set-up child printed %q: %v", line, rerr)
		}
		out = append(out, elapsed.Seconds())
	}
	return out, nil
}

// hostSentinel records the host-noise readings beside a run.
type hostSentinel struct {
	start  cpuStat
	haveSt bool
	spinMS float64
}

func startSentinel() hostSentinel {
	st, ok := readCPUStat()
	return hostSentinel{start: st, haveSt: ok, spinMS: spinMS()}
}

func (h hostSentinel) stealShare() float64 {
	end, ok := readCPUStat()
	if !h.haveSt || !ok {
		return 0
	}
	return stealShare(h.start, end)
}

// untracedRun measures the end-to-end metrics.
func untracedRun(o options, logf func(string, ...any)) (*result, error) {
	host := startSentinel()
	setups, err := timeSetups(o)
	if err != nil {
		return nil, err
	}
	b, err := newBench(o.seed)
	if err != nil {
		return nil, err
	}
	var t tally
	win := b.window(o.workload, time.Duration(o.seconds)*time.Second, nil, &t)
	// One traced pass after the window counts the simulated syscalls, and
	// its outputs are checked against the same reference as the untraced
	// passes: tracing must leave virtual time unchanged.
	tp := b.pass(o.workload, newTracer())
	t.record(tp)

	w := walls(win.samples, false)
	p50 := median(w)
	tailS, pct := tail(w)
	var mallocs, bytes []float64
	for _, s := range win.samples {
		mallocs = append(mallocs, float64(s.rt.mallocs))
		bytes = append(bytes, float64(s.rt.bytes))
	}
	m := map[string]metric{
		"setup_s":              {median(setups), "s"},
		"pass_wall_p50_s":      {p50, "s"},
		"pass_wall_tail_s":     {tailS, "s"},
		"sim_syscalls_per_s":   {ratio(float64(tp.counts.syscalls()), p50), "1/s"},
		"allocs_per_pass":      {median(mallocs), "count"},
		"alloc_bytes_per_pass": {median(bytes), "B"},
		"peak_rss_mb":          {win.rssMB, "MB"},
	}
	logf("%s seed %d: %d passes, tail is p%.1f; %d simulated syscalls per pass; setup samples %v; peak RSS at the end %.0f MB",
		o.workload, o.seed, len(w), pct, tp.counts.syscalls(), setups, peakRSSMB())
	logf("host.steal_share %.4f host.spin_ms %.2f", host.stealShare(), host.spinMS)
	return t.result(m, logf), nil
}

// Span names by workload: the span a cell's run time is read from, the
// span of one cell, and the span whose wall the runner workers share.
// These per-workload metrics always come from the run's own workload.
var (
	runSpan  = map[string]string{fig5Workload: "lmbench.run", fig6Workload: "passmark.run", harnessWorkload: "diffcheck.cell"}
	cellSpan = map[string]string{fig5Workload: "lmbench.cell", fig6Workload: "passmark.cell", harnessWorkload: "diffcheck.seed"}
	busySpan = map[string]string{fig5Workload: "pass", fig6Workload: "pass", harnessWorkload: "diffcheck"}
	busyJobs = map[string]int{fig5Workload: 1, fig6Workload: 1, harnessWorkload: harnessJobs}
)

// tracedRun measures the per-layer metrics: the layer probes, one traced
// sweep pass of each other workload, the soak cell sweep, and then a
// window of untraced and traced passes of the workload. The probes and
// sweeps come first, while the heap is still small: the leak described
// in README.md would otherwise add GC work to them that grows with the
// length of the window.
func tracedRun(o options, logf func(string, ...any)) (*result, error) {
	host := startSentinel()
	b, err := newBench(o.seed)
	if err != nil {
		return nil, err
	}
	var t tally
	costs, probeFailures := runProbes(logf)
	t.attempted += len(probes) * probeReps
	t.failed += probeFailures
	tracers := map[string]*tracer{}
	for _, w := range workloadNames {
		tracers[w] = newTracer()
		if w != o.workload {
			t.record(b.pass(w, tracers[w]))
		}
	}
	t.record(b.soakCellSweep(tracers[harnessWorkload]))
	heap0 := liveHeap()
	win := b.window(o.workload, time.Duration(o.seconds)*time.Second, tracers[o.workload], &t)
	samples, first := win.samples, win.first
	heapGrowth := ratio(liveHeap()-heap0, float64(len(samples)))

	m := map[string]metric{}
	own := tracers[o.workload]
	f5, f6, hf := tracers[fig5Workload], tracers[fig6Workload], tracers[harnessWorkload]
	tracedPasses := len(walls(samples, true))
	m["core.boot_s_p50"] = metric{median(f5.durations("core.boot")), "s"}
	m["core.boot_share"] = metric{ratio(sum(f5.durations("core.boot")), sum(f5.durations("pass"))), "share"}
	m["lmbench.cell_run_s_p50"] = metric{median(f5.durations("lmbench.run")), "s"}
	m["passmark.cell_run_s_p50"] = metric{median(f6.durations("passmark.run")), "s"}
	m["kernel.host_ns_per_syscall"] = metric{ratio(sum(own.durations(runSpan[o.workload]))*1e9,
		float64(first.syscalls())*float64(tracedPasses)), "ns"}
	m["runner.busy_share"] = metric{ratio(sum(own.durations(cellSpan[o.workload])),
		float64(busyJobs[o.workload])*sum(own.durations(busySpan[o.workload]))), "share"}
	m["diffcheck.gen_s"] = metric{median(hf.durations("diffcheck.gen")), "s"}
	m["diffcheck.cell_s_p50"] = metric{median(hf.durations("diffcheck.cell")), "s"}
	m["diffcheck.compare_s"] = metric{median(hf.durations("diffcheck.compare")), "s"}
	m["soak.cell_s_p50"] = metric{median(hf.durations("soak.cell")), "s"}
	m["replay.replay_s"] = metric{median(hf.durations("replay")), "s"}

	var gcCycles uint64
	var gcCPU, totalCPU float64
	untraced := 0
	for _, s := range samples {
		if !s.traced {
			untraced++
			gcCycles += s.rt.gcCycles
			gcCPU += s.rt.gcCPU
			totalCPU += s.rt.totalCPU
		}
	}
	m["runtime.gc_cpu_share"] = metric{ratio(gcCPU, totalCPU), "share"}
	m["runtime.gc_cycles_per_pass"] = metric{ratio(float64(gcCycles), float64(untraced)), "count"}
	m["runtime.heap_growth_bytes_per_pass"] = metric{heapGrowth, "B"}
	m["trace.overhead_share"] = metric{ratio(median(walls(samples, true)), median(walls(samples, false))) - 1, "share"}

	for _, name := range countNames {
		m[name] = metric{float64(first[name]), "count"}
	}
	for _, p := range probes {
		c := costs[p.name]
		m[p.name+".ns"] = metric{c.ns, "ns"}
		m[p.name+".allocs"] = metric{c.allocs, "count"}
		m[p.name+".bytes"] = metric{c.bytes, "B"}
	}
	m["host.steal_share"] = metric{host.stealShare(), "share"}
	m["host.spin_ms"] = metric{host.spinMS, "ms"}

	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for w, tr := range tracers {
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.jsonl", o.workload, o.seed, w))
		if err := tr.writeJSONLines(path); err != nil {
			return nil, err
		}
	}
	logf("%s seed %d: %d untraced and %d traced passes; spans in %s", o.workload, o.seed, untraced, tracedPasses, dir)
	return t.result(m, logf), nil
}
