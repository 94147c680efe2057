package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/diffcheck"
	"repro/internal/lmbench"
	"repro/internal/passmark"
	"repro/internal/persona"
	"repro/internal/replay"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/soak"
	"repro/internal/trace"
)

// Workload names, in the order BENCHMARK.json lists them.
const (
	fig5Workload    = "fig5-lmbench"
	fig6Workload    = "fig6-passmark"
	harnessWorkload = "harness-faults"
)

var workloadNames = []string{fig5Workload, fig6Workload, harnessWorkload}

const (
	// harnessJobs is the runner parallelism of every harness-faults part.
	harnessJobs = 2
	// diffcheckWindow is how many consecutive diffcheck seeds, starting
	// at the --seed argument, one harness-faults pass checks.
	diffcheckWindow = 32
	// replayArtifact is the checked-in explored schedule the pass replays.
	replayArtifact = "internal/soak/testdata/explored-daemon-crash-mach-x5.json"
)

// soakSchedules are the fault schedules of the harness-faults soak part.
var soakSchedules = []string{"daemon-crash", "mem-pressure-storm"}

// soakTests is the harness-faults soak battery: the first test of
// soak.QuickTests. Each schedule then runs five cells (one per
// configuration, plus the Mach IPC cell), and every cell with an iOS
// layer still boots the service tree or the balloons its schedule storms.
// The battery is this small because each soak cell leaves memory behind
// (see README.md), so a larger one would grow the process by gigabytes
// within a run.
func soakTests() []lmbench.Test {
	return soak.QuickTests()[:1]
}

// bench is one process's benchmark state: the reference, the generated
// inputs, and what the first pass established for later passes to match.
type bench struct {
	ref         *reference
	seeds       []uint64
	artifact    *replay.Artifact
	artifactDir string
	schedules   []soak.Schedule
	soakTests   []lmbench.Test
	allow       []diffcheck.AllowEntry

	// seedDigests fingerprints each diffcheck seed's outputs on the first
	// harness-faults pass; every later pass must reproduce them.
	seedDigests []uint64
}

// newBench does the set-up every workload shares before its first pass:
// the reference, the harness inputs for seed, and one boot of each
// configuration, which builds the filesystem templates and shared caches.
// Paths are relative to the repository root, the working directory.
func newBench(seed uint64) (*bench, error) {
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	b := &bench{
		ref:         ref,
		artifactDir: filepath.Join(".bench_build", "soak-artifacts"),
		soakTests:   soakTests(),
		allow:       diffcheck.DefaultAllowlist(),
	}
	for i := 0; i < diffcheckWindow; i++ {
		b.seeds = append(b.seeds, seed+uint64(i))
	}
	if b.artifact, err = replay.Load(replayArtifact); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(b.artifactDir, 0o755); err != nil {
		return nil, err
	}
	for _, name := range soakSchedules {
		s, ok := soak.ScheduleByName(name)
		if !ok {
			return nil, fmt.Errorf("soak schedule %q not found", name)
		}
		b.schedules = append(b.schedules, s)
	}
	for _, cfg := range []core.Config{core.ConfigVanilla, core.ConfigCider, core.ConfigIPad} {
		if _, err := core.NewSystem(cfg); err != nil {
			return nil, fmt.Errorf("boot %v: %w", cfg, err)
		}
	}
	return b, nil
}

// passResult is what one pass did and whether its outputs matched.
type passResult struct {
	ops, failed int
	problems    []string
	// counts are the pass's exact trace counts: every traced pass has
	// them, and harness-faults passes always do.
	counts counts
}

func (r *passResult) add(failed int, problems []string) {
	r.failed += failed
	r.problems = append(r.problems, problems...)
}

// pass runs one pass of the named workload. A non-nil tracer records the
// pass's spans and attaches trace sessions to collect exact counts.
func (b *bench) pass(workload string, tr *tracer) passResult {
	switch workload {
	case fig5Workload:
		return b.fig5Pass(tr)
	case fig6Workload:
		return b.fig6Pass(tr)
	case harnessWorkload:
		return b.harnessPass(tr)
	}
	return passResult{ops: 1, failed: 1, problems: []string{"unknown workload " + workload}}
}

// attachTrace enables a counts-only trace session on sys, the way
// cmd/simbench does: a one-entry event ring, so recording events does not
// dominate the traced run.
func attachTrace(sys *core.System) *trace.Session {
	s := sys.EnableTrace()
	s.SetRingCapacity(1)
	return s
}

// fig5Pass runs the full Fig. 5 battery at jobs=1: 24 tests on each of
// the four configurations, one freshly booted System per cell. Untraced,
// it is one lmbench.RunFigure5Opts call. Traced, it runs the same cells
// through runner.Map and lmbench.RunWith, as RunFigure5Opts does inside,
// so each cell's boot and run get their own spans; the OnSystem hook
// marks where core.NewSystem returned.
func (b *bench) fig5Pass(tr *tracer) passResult {
	tests := lmbench.AllTests()
	cells := lmbench.Cells(tests)
	res := passResult{ops: len(cells)}
	var results []lmbench.Result
	if tr == nil {
		rep, err := lmbench.RunFigure5Opts(tests, lmbench.Options{Jobs: 1})
		if err != nil {
			res.add(len(cells), []string{err.Error()})
			return res
		}
		results = fig5Results(rep)
	} else {
		sessions := make([]*trace.Session, len(cells))
		pass := tr.begin("pass", noSpan)
		outs, err := runner.Map(len(cells), 1, func(i int) ([]lmbench.Result, error) {
			cell := tr.begin("lmbench.cell", pass)
			boot := tr.begin("core.boot", cell)
			run := noSpan
			rs, err := lmbench.RunWith(cells[i].Config, []lmbench.Test{cells[i].Test}, func(sys *core.System) {
				tr.end(boot)
				run = tr.begin("lmbench.run", cell)
				sessions[i] = attachTrace(sys)
			})
			tr.end(run)
			tr.end(cell)
			return rs, err
		})
		tr.end(pass)
		if err != nil {
			res.add(len(cells), []string{err.Error()})
			return res
		}
		for _, rs := range outs {
			results = append(results, rs...)
		}
		res.counts = sessionCounts(sessions)
	}
	res.add(compareCells(b.ref.Fig5, fig5Outputs(results)))
	return res
}

// fig5Results lists a Fig. 5 report's results in lmbench.Cells order, the
// order a traced pass produces them in.
func fig5Results(rep *lmbench.Report) []lmbench.Result {
	var out []lmbench.Result
	for _, c := range lmbench.Cells(rep.Tests) {
		out = append(out, lmbench.Result{
			Test: c.Test.Name, Config: c.Config.Name,
			Latency: rep.Latency[c.Test.Name][c.Config.Name],
			Failed:  rep.Failed[c.Test.Name][c.Config.Name],
		})
	}
	return out
}

func fig5Outputs(results []lmbench.Result) []fig5Cell {
	out := make([]fig5Cell, 0, len(results))
	for _, r := range results {
		out = append(out, fig5Cell{Test: r.Test, Config: r.Config, LatencyNS: r.Latency.Nanoseconds(), Failed: r.Failed})
	}
	return out
}

// fig6Pass runs the full Fig. 6 battery at jobs=1: every PassMark test in
// one app process per configuration. Untraced, it is one
// passmark.RunFigure6Opts call; traced, the same cells run through
// runner.Map and passmark.RunWith, split into boot and run spans.
func (b *bench) fig6Pass(tr *tracer) passResult {
	tests := passmark.AllTests()
	confs := passmark.Configurations()
	res := passResult{ops: len(confs)}
	var results []passmark.Result
	if tr == nil {
		rep, err := passmark.RunFigure6Opts(tests, passmark.Options{Jobs: 1})
		if err != nil {
			res.add(len(confs), []string{err.Error()})
			return res
		}
		results = fig6Results(rep)
	} else {
		sessions := make([]*trace.Session, len(confs))
		pass := tr.begin("pass", noSpan)
		outs, err := runner.Map(len(confs), 1, func(i int) ([]passmark.Result, error) {
			cell := tr.begin("passmark.cell", pass)
			boot := tr.begin("core.boot", cell)
			run := noSpan
			rs, err := passmark.RunWith(confs[i], tests, func(sys *core.System) {
				tr.end(boot)
				run = tr.begin("passmark.run", cell)
				sessions[i] = attachTrace(sys)
			})
			tr.end(run)
			tr.end(cell)
			return rs, err
		})
		tr.end(pass)
		if err != nil {
			res.add(len(confs), []string{err.Error()})
			return res
		}
		for _, rs := range outs {
			results = append(results, rs...)
		}
		res.counts = sessionCounts(sessions)
	}
	got := fig6Outputs(results)
	// A configuration is one cell (one app process): it fails when any
	// of its test results differs from the reference.
	n := len(tests)
	if len(got) != len(b.ref.Fig6) {
		res.add(len(confs), []string{fmt.Sprintf("got %d results, reference has %d", len(got), len(b.ref.Fig6))})
		return res
	}
	for i := range confs {
		if f, p := compareCells(b.ref.Fig6[i*n:(i+1)*n], got[i*n:(i+1)*n]); f > 0 {
			res.add(1, p)
		}
	}
	return res
}

// fig6Results lists a Fig. 6 report's results by configuration, then by
// test, the order a traced pass produces them in.
func fig6Results(rep *passmark.Report) []passmark.Result {
	var out []passmark.Result
	for _, conf := range passmark.Configurations() {
		for _, t := range rep.Tests {
			out = append(out, passmark.Result{
				Test: t.Name, Config: conf.Name,
				Score: rep.Score[t.Name][conf.Name], Err: rep.Errors[t.Name][conf.Name],
			})
		}
	}
	return out
}

func fig6Outputs(results []passmark.Result) []fig6Cell {
	out := make([]fig6Cell, 0, len(results))
	for _, r := range results {
		c := fig6Cell{Test: r.Test, Config: r.Config, Score: r.Score}
		if r.Err != nil {
			c.Err = r.Err.Error()
		}
		out = append(out, c)
	}
	return out
}

// seedOutcome is one diffcheck seed's checked result.
type seedOutcome struct {
	digest   uint64
	problems []string
	counts   counts
}

// harnessPass runs the three harness parts, each through runner.Map at
// jobs=2: the diffcheck window, the soak battery under each schedule with
// decision recording on, and the replay of the checked-in artifact.
// Their Systems build their own trace sessions, so counts come from the
// public results whether or not tr is nil.
func (b *bench) harnessPass(tr *tracer) passResult {
	res := passResult{counts: counts{}}
	pass := tr.begin("pass", noSpan)

	dc := tr.begin("diffcheck", pass)
	outs, _ := runner.Map(len(b.seeds), harnessJobs, func(i int) (seedOutcome, error) {
		return b.checkSeed(tr, dc, b.seeds[i]), nil
	})
	tr.end(dc)
	first := b.seedDigests == nil
	for i, o := range outs {
		res.ops++
		if first {
			b.seedDigests = append(b.seedDigests, o.digest)
		} else if o.digest != b.seedDigests[i] {
			o.problems = append(o.problems, fmt.Sprintf("diffcheck seed %d: outputs differ from the first pass", b.seeds[i]))
		}
		if len(o.problems) > 0 {
			res.add(1, o.problems)
		}
		res.counts.add(o.counts)
	}

	for _, s := range b.schedules {
		sp := tr.begin("soak.schedule", pass)
		r := soak.RunSchedule(s, soak.Options{Jobs: harnessJobs, Tests: b.soakTests, ArtifactDir: b.artifactDir})
		tr.end(sp)
		res.ops += r.Cells
		want, ok := b.ref.soak(s.Name)
		got := soakRef{Schedule: s.Name, Digest: r.Digest, Cells: r.Cells, FailedCells: r.FailedCells, Injected: r.Injected}
		switch {
		case r.Err() != nil:
			res.add(r.Cells, []string{r.Err().Error()})
		case !ok:
			res.add(r.Cells, []string{"no reference for soak schedule " + s.Name})
		case got.Digest != want.Digest || got.Cells != want.Cells ||
			got.FailedCells != want.FailedCells || got.Injected != want.Injected:
			res.add(r.Cells, []string{fmt.Sprintf("soak %s: got digest %x cells %d failed %d injected %d, reference %x %d %d %d",
				s.Name, got.Digest, got.Cells, got.FailedCells, got.Injected,
				want.Digest, want.Cells, want.FailedCells, want.Injected)})
		}
		res.counts.addCounters(r.Counters)
	}

	rp := tr.begin("replay", pass)
	rep, err := soak.ReplayCell(b.artifact)
	tr.end(rp)
	res.ops++
	if p := b.checkReplay(rep, err); p != "" {
		res.add(1, []string{p})
	}
	if rep != nil {
		res.counts["replay.decisions"] += rep.DecisionCount
	}
	tr.end(pass)
	return res
}

// checkReplay reports why a replay of the artifact is wrong, or "".
func (b *bench) checkReplay(rep *soak.CellReport, err error) string {
	if err != nil {
		return "replay: " + err.Error()
	}
	want, err := b.artifact.DigestValue()
	if err != nil {
		return "replay: " + err.Error()
	}
	if len(rep.Findings) > 0 {
		return "replay: " + strings.Join(rep.Findings, "; ")
	}
	if rep.Digest != want {
		return fmt.Sprintf("replay: digest %016x, artifact recorded %016x", rep.Digest, want)
	}
	return ""
}

// checkSeed generates one diffcheck program and fault plan, runs it under
// both personas, and filters the comparison through the allowlist. The
// seed fails on any unallowlisted divergence or unhealthy cell.
func (b *bench) checkSeed(tr *tracer, parent int, seed uint64) seedOutcome {
	sp := tr.begin("diffcheck.seed", parent)
	defer tr.end(sp)

	g := tr.begin("diffcheck.gen", sp)
	p := diffcheck.Generate(seed)
	plan := diffcheck.PlanFor(seed)
	tr.end(g)

	ca := tr.begin("diffcheck.cell", sp)
	android := diffcheck.RunCell(p, false, plan)
	tr.end(ca)
	ci := tr.begin("diffcheck.cell", sp)
	ios := diffcheck.RunCell(p, true, plan)
	tr.end(ci)

	cmp := tr.begin("diffcheck.compare", sp)
	divs, hits := diffcheck.Filter(diffcheck.Compare(seed, android, ios), b.allow)
	tr.end(cmp)

	o := seedOutcome{counts: counts{}}
	for _, d := range divs {
		o.problems = append(o.problems, fmt.Sprintf("diffcheck seed %d: divergence %s", seed, d.Sig))
	}
	for _, c := range []*diffcheck.CellResult{android, ios} {
		if c.Err != "" || c.LeakErr != "" || c.Dropped != 0 {
			o.problems = append(o.problems, fmt.Sprintf("diffcheck seed %d %v cell: err=%q leak=%q dropped=%d",
				seed, c.Persona, c.Err, c.LeakErr, c.Dropped))
		}
		o.counts.addDiffcheckCell(c)
	}
	o.digest = digestSeed(android, ios, hits)
	return o
}

// digestSeed fingerprints everything deterministic about one seed's two
// cells: per-op logs, per-process event streams, counters, allowlist hits.
func digestSeed(android, ios *diffcheck.CellResult, hits map[string]int) uint64 {
	h := fnv.New64a()
	for _, c := range []*diffcheck.CellResult{android, ios} {
		fmt.Fprintf(h, "persona %v\n", c.Persona)
		for _, line := range c.Log {
			fmt.Fprintln(h, line)
		}
		for _, proc := range c.Procs {
			fmt.Fprintln(h, proc)
			for _, line := range c.Events[proc] {
				fmt.Fprintln(h, line)
			}
		}
		for _, name := range sortedKeys(c.Counters) {
			fmt.Fprintf(h, "%s=%d\n", name, c.Counters[name])
		}
	}
	for _, id := range sortedKeys(hits) {
		fmt.Fprintf(h, "allow %s=%d\n", id, hits[id])
	}
	return h.Sum64()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// soakCellSweep runs every soak cell of the harness battery once, alone,
// through soak.RecordCell at jobs=1, timing each as a "soak.cell" span
// and checking its digest against the reference. soak.RunSchedule keeps
// its cells internal, so this sweep is where soak's per-cell time shows.
func (b *bench) soakCellSweep(tr *tracer) passResult {
	var res passResult
	for _, s := range b.schedules {
		want, _ := b.ref.soak(s.Name)
		for i, ref := range soak.CellRefs(b.soakTests, false) {
			sp := tr.begin("soak.cell", noSpan)
			_, rep := soak.RecordCell(s, ref, nil, 0)
			tr.end(sp)
			res.ops++
			switch {
			case len(rep.Findings) > 0:
				res.add(1, rep.Findings)
			case i >= len(want.CellDigests) || rep.Digest != want.CellDigests[i]:
				res.add(1, []string{fmt.Sprintf("soak %s cell %s: digest %016x differs from the reference", s.Name, ref, rep.Digest)})
			}
		}
	}
	return res
}

// buildReference runs the fixed batteries once and records their outputs.
func (b *bench) buildReference() (*reference, error) {
	ref := &reference{}
	rep5, err := lmbench.RunFigure5Opts(lmbench.AllTests(), lmbench.Options{Jobs: 1})
	if err != nil {
		return nil, err
	}
	ref.Fig5 = fig5Outputs(fig5Results(rep5))
	rep6, err := passmark.RunFigure6Opts(passmark.AllTests(), passmark.Options{Jobs: 1})
	if err != nil {
		return nil, err
	}
	ref.Fig6 = fig6Outputs(fig6Results(rep6))
	for _, s := range b.schedules {
		r := soak.RunSchedule(s, soak.Options{Jobs: harnessJobs, Tests: b.soakTests, ArtifactDir: b.artifactDir})
		if err := r.Err(); err != nil {
			return nil, err
		}
		sr := soakRef{Schedule: s.Name, Digest: r.Digest, Cells: r.Cells, FailedCells: r.FailedCells, Injected: r.Injected}
		for _, cref := range soak.CellRefs(b.soakTests, false) {
			_, rep := soak.RecordCell(s, cref, nil, 0)
			sr.CellDigests = append(sr.CellDigests, rep.Digest)
		}
		ref.Soak = append(ref.Soak, sr)
	}
	return ref, nil
}

// counts are exact per-pass trace counts, keyed by per-layer metric name.
type counts map[string]uint64

// countNames lists every count metric, in report order.
var countNames = []string{
	"kernel.syscalls.android", "kernel.syscalls.ios", "kernel.syscall_errors",
	"sim.spawn", "sim.block", "sim.wake", "sim.sched_events",
	"diplomat.calls", "diplomat.resolves",
	"dyld.images", "dyld.binds", "dyld.cache_attach",
	"signal.posted", "signal.xnu_deliver_translated", "signal.xnu_send_translated",
	"fault.injected", "exc.raised", "launchd.respawns", "jetsam.kills",
	"pressure.notify", "rlimit.hits", "rlimit.xnu_translated",
	"replay.decisions",
}

// traceCounters are the count metrics that are trace.Session counters.
var traceCounters = []string{
	trace.CounterDiplomatCalls, trace.CounterDiplomatResolves,
	trace.CounterDyldImages, trace.CounterDyldBinds, trace.CounterDyldCacheAttach,
	trace.CounterSignalPosted, trace.CounterSignalXNUDeliver, trace.CounterSignalXNUSend,
	trace.CounterFaultInjected, trace.CounterExcRaised, trace.CounterLaunchdRespawns,
	trace.CounterJetsamKills, trace.CounterPressureNotify, trace.CounterRlimitHits,
	trace.CounterRlimitXlate,
}

func (c counts) syscalls() uint64 {
	return c["kernel.syscalls.android"] + c["kernel.syscalls.ios"]
}

func (c counts) add(o counts) {
	for k, v := range o {
		c[k] += v
	}
}

func (c counts) addCounters(m map[string]uint64) {
	for _, name := range traceCounters {
		c[name] += m[name]
	}
}

func (c counts) equal(o counts) bool {
	for _, name := range countNames {
		if c[name] != o[name] {
			return false
		}
	}
	return true
}

// sessionCounts sums the counts of one pass's trace sessions.
func sessionCounts(sessions []*trace.Session) counts {
	c := counts{}
	for _, s := range sessions {
		if s == nil {
			continue
		}
		sum := s.Summarize(false)
		for _, st := range sum.Syscalls {
			if st.Key.Persona == persona.IOS {
				c["kernel.syscalls.ios"] += st.Hist.Count
			} else {
				c["kernel.syscalls.android"] += st.Hist.Count
			}
			c["kernel.syscall_errors"] += st.Errors
		}
		c["sim.spawn"] += s.SchedCount(sim.SchedSpawn)
		c["sim.block"] += s.SchedCount(sim.SchedBlock)
		c["sim.wake"] += s.SchedCount(sim.SchedWake)
		for ev := sim.SchedEvent(0); ev < sim.NumSchedEvents; ev++ {
			c["sim.sched_events"] += s.SchedCount(ev)
		}
		c.addCounters(sum.Counters)
	}
	return c
}

// addDiffcheckCell counts one diffcheck cell. Its trace session is
// private, so syscalls are the sysexit lines of its normalized event
// streams, attributed to the cell's persona; normalization drops the
// set_persona hops and every scheduler event.
func (c counts) addDiffcheckCell(r *diffcheck.CellResult) {
	key := "kernel.syscalls.android"
	if r.Persona == persona.IOS {
		key = "kernel.syscalls.ios"
	}
	for _, lines := range r.Events {
		for _, line := range lines {
			if !strings.HasPrefix(line, "sysexit ") {
				continue
			}
			c[key]++
			if !strings.HasSuffix(line, " errno=0") {
				c["kernel.syscall_errors"]++
			}
		}
	}
	c.addCounters(r.Counters)
}
