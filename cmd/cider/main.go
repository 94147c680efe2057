// Command cider boots a full Cider device and demonstrates the paper's
// headline capability end to end: iOS and Android apps running side by
// side on the same (simulated) Nexus 7 — the iOS app launched from the
// Android Launcher through CiderPress, receiving multi-touch input through
// the eventpump, rendering via diplomatic OpenGL ES, and talking to the
// copied iOS service daemons over duct-taped Mach IPC.
//
// Usage:
//
//	cider [--trace]        run the side-by-side demo; with --trace, attach
//	                       a ktrace session and dump it after the run
//	cider stats [--json] [--jobs N]
//	                       run the Fig. 5 syscall battery under tracing on
//	                       the android / cider-android / cider-ios
//	                       configurations (one host worker per
//	                       configuration, up to N) and print per-syscall
//	                       histograms plus the null-syscall overhead
//	                       decomposition; --json emits one machine-readable
//	                       document with both
//	cider soak [--jobs N] [--quick] [--full] [--schedule NAME] [--verify]
//	           [--explore N] [--artifact-dir DIR]
//	                       run the Fig. 5 battery (plus a dedicated Mach IPC
//	                       workload; --full adds Fig. 6) under the
//	                       deterministic fault-schedule matrix and check the
//	                       error-path invariants: identical digests at any
//	                       jobs level, leak-free kernels, no deadlocks;
//	                       --verify re-runs each schedule at jobs=1 and
//	                       jobs=N and compares digests; --explore N runs N
//	                       seeded perturbations of every ambiguous scheduler
//	                       decision per schedule (DPOR-lite) and writes a
//	                       minimized replay artifact per failure
//	cider replay [--smoke] <artifact.json>
//	                       re-execute a recorded soak/diffcheck cell from a
//	                       replay artifact, bit-identically and in
//	                       isolation, and assert digest equality against
//	                       the recorded run; --smoke records one cell,
//	                       replays it, and asserts round-trip digest
//	                       equality (the verify gate)
//	cider crashes          boot the service tree, crash two iOS apps with
//	                       fatal faults, and print the crash reports
//	                       crashreporterd wrote to /var/log/crashes plus
//	                       the exception/supervision counters
//	cider diffcheck [--seeds N] [--jobs N] [--corpus DIR] [--no-minimize]
//	                [--update-allowlist] [--explore N] [--artifact-dir DIR]
//	                       run the differential persona oracle: execute N
//	                       seeded programs under both personas and diff the
//	                       canonicalized results; unallowlisted divergences
//	                       are minimized and reported (exit nonzero) with a
//	                       replay artifact each, and --corpus writes each
//	                       diverging program's text to DIR;
//	                       --update-allowlist prints suggested allowlist
//	                       entries (the Why citation still has to be
//	                       written by hand — that is the policy);
//	                       --explore N re-runs every persona pair under N
//	                       perturbed schedules and writes a minimized
//	                       replay artifact per residual divergence
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/diffcheck"
	"repro/internal/input"
	"repro/internal/kernel"
	"repro/internal/libsystem"
	"repro/internal/lmbench"
	"repro/internal/prog"
	"repro/internal/replay"
	"repro/internal/runner"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/soak"
	"repro/internal/trace"
	"repro/internal/uikit"
)

func main() {
	var err error
	args := os.Args[1:]
	switch {
	case len(args) > 0 && args[0] == "stats":
		fs := flag.NewFlagSet("stats", flag.ExitOnError)
		asJSON := fs.Bool("json", false, "emit one JSON document instead of text")
		jobs := fs.Int("jobs", 0, "max parallel host workers (<=0: GOMAXPROCS)")
		if err := fs.Parse(args[1:]); err != nil {
			os.Exit(2)
		}
		err = runStats(*asJSON, *jobs)
	case len(args) > 0 && args[0] == "soak":
		fs := flag.NewFlagSet("soak", flag.ExitOnError)
		jobs := fs.Int("jobs", 0, "max parallel host workers (<=0: GOMAXPROCS)")
		quick := fs.Bool("quick", false, "reduced lmbench battery (the verify smoke)")
		full := fs.Bool("full", false, "also run the Fig. 6 PassMark battery")
		schedule := fs.String("schedule", "", "run a single named schedule (default: whole matrix)")
		verify := fs.Bool("verify", false, "run each schedule at jobs=1 and jobs=N and compare digests")
		explore := fs.Int("explore", 0, "run N seeded schedule perturbations per schedule (DPOR-lite)")
		artifactDir := fs.String("artifact-dir", "", "directory for failure replay artifacts (default: temp dir)")
		if err := fs.Parse(args[1:]); err != nil {
			os.Exit(2)
		}
		scheds, opts, serr := soakSetup(*jobs, *quick, *full, *schedule, *artifactDir)
		switch {
		case serr != nil:
			err = serr
		case *explore > 0:
			err = runSoakExplore(scheds, opts, *explore)
		default:
			err = runSoak(scheds, opts, *verify)
		}
	case len(args) > 0 && args[0] == "replay":
		fs := flag.NewFlagSet("replay", flag.ExitOnError)
		smoke := fs.Bool("smoke", false, "record one cell, replay it, assert digest equality")
		if err := fs.Parse(args[1:]); err != nil {
			os.Exit(2)
		}
		if *smoke {
			err = runReplaySmoke()
		} else {
			if fs.NArg() != 1 {
				err = fmt.Errorf("replay: usage: cider replay [--smoke] <artifact.json>")
			} else {
				err = runReplay(fs.Arg(0))
			}
		}
	case len(args) > 0 && args[0] == "crashes":
		err = runCrashes()
	case len(args) > 0 && args[0] == "diffcheck":
		fs := flag.NewFlagSet("diffcheck", flag.ExitOnError)
		seeds := fs.Int("seeds", 200, "number of seeded programs to run")
		jobs := fs.Int("jobs", 0, "max parallel host workers (<=0: GOMAXPROCS)")
		corpus := fs.String("corpus", "", "directory to write diverging programs to")
		noMin := fs.Bool("no-minimize", false, "skip delta-debug minimization of divergences")
		suggest := fs.Bool("update-allowlist", false, "print suggested allowlist entries for residual divergences")
		explore := fs.Int("explore", 0, "run N perturbed schedules per persona pair (DPOR-lite)")
		artifactDir := fs.String("artifact-dir", "", "directory for replay artifacts (default: OS temp dir)")
		if err := fs.Parse(args[1:]); err != nil {
			os.Exit(2)
		}
		if *explore > 0 {
			err = runDiffcheckExplore(*seeds, *jobs, *explore, *artifactDir)
		} else {
			err = runDiffcheck(*seeds, *jobs, *corpus, !*noMin, *suggest, *artifactDir)
		}
	default:
		err = runDemo(hasFlag(args, "--trace"))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cider: %v\n", err)
		os.Exit(1)
	}
}

func hasFlag(args []string, flag string) bool {
	for _, a := range args {
		if a == flag {
			return true
		}
	}
	return false
}

func runDemo(traced bool) error {
	fmt.Println("== booting Cider on a simulated Nexus 7 (Android 4.2) ==")
	sys, err := core.NewSystem(core.ConfigCider)
	if err != nil {
		return err
	}
	if traced {
		sys.EnableTrace()
	}
	fmt.Printf("  kernel: %s  device: %s\n", sys.Kernel.Profile(), sys.Kernel.Device().Name)
	fmt.Printf("  iOS base image: %d dylibs\n", len(core.IOSDylibs()))
	fmt.Printf("  GL diplomats generated: %d\n", len(sys.GLSpecs))

	if _, err := sys.BootServices(); err != nil {
		return err
	}
	fmt.Println("  launchd started (spawns configd, notifyd, syslogd)")

	// An ordinary Android app runs alongside.
	var androidRan bool
	if err := sys.InstallStaticAndroidBinary("/system/bin/androidapp", "androidapp", func(c *prog.Call) uint64 {
		androidRan = true
		return 0
	}); err != nil {
		return err
	}

	// The iOS app: renders, handles gestures, logs to syslogd.
	var taps int
	var frames int
	if err := sys.InstallIOSBinary("/Applications/Demo.app/Demo", "demo-app", nil, func(c *prog.Call) uint64 {
		th := c.Ctx.(*kernel.Thread)
		lc := libsystem.Sys(th)
		return uikit.Main(th, uikit.Delegate{
			OnLaunch: func(app *uikit.App) {
				if port, err := services.WaitForService(lc, services.SyslogdName, 100); err == nil {
					services.Syslog(lc, port, "Demo[1]: launched on "+th.Kernel().Device().Name)
				}
				app.GL.Call("_glClearColor", 0, 0, 0, 1)
				app.GL.Call("_glClear", 0x4000)
				app.Present()
				frames = app.Frames
			},
			OnGesture: func(app *uikit.App, g input.Gesture) {
				if g.Kind == input.GestureTap {
					taps++
					app.GL.Call("_glClear", 0x4000)
					app.GL.Call("_glDrawArrays", 4, 0, 128)
					app.Present()
					frames = app.Frames
				}
			},
		})
	}); err != nil {
		return err
	}

	// Launch through CiderPress, as the Launcher shortcut would.
	if _, err := sys.LaunchIOSApp("/Applications/Demo.app/Demo"); err != nil {
		return err
	}
	if _, err := sys.Start("/system/bin/androidapp", nil); err != nil {
		return err
	}

	// A touch driver playing the user.
	if err := sys.InstallStaticAndroidBinary("/system/bin/user", "user", func(c *prog.Call) uint64 {
		th := c.Ctx.(*kernel.Thread)
		th.Charge(80 * time.Millisecond)
		for i := 0; i < 3; i++ {
			sys.Input.Inject(th, input.Event{Type: input.TouchDown, X: 640, Y: 400})
			th.Charge(5 * time.Millisecond)
			sys.Input.Inject(th, input.Event{Type: input.TouchUp, X: 640, Y: 400})
			th.Charge(30 * time.Millisecond)
		}
		sys.Input.Inject(th, input.Event{Type: input.Lifecycle, Code: input.LifecycleStop})
		return 0
	}); err != nil {
		return err
	}
	if _, err := sys.Start("/system/bin/user", nil); err != nil {
		return err
	}

	if err := sys.Run(); err != nil {
		// On deadlock, dump the wait-graph snapshot: which procs were
		// parked, on what, and at which virtual time.
		var dl *sim.ErrDeadlock
		if errors.As(err, &dl) {
			fmt.Fprint(os.Stderr, dl.Report())
		}
		return err
	}

	fmt.Println("\n== session ==")
	fmt.Printf("  android app ran alongside:  %v\n", androidRan)
	fmt.Printf("  taps delivered to iOS app:  %d\n", taps)
	fmt.Printf("  frames presented:           %d\n", frames)
	fmt.Printf("  diplomatic calls:           %d\n", sys.Diplomat.Calls())
	sent, recvd := sys.IPC.Stats()
	fmt.Printf("  mach messages sent/recvd:   %d/%d\n", sent, recvd)
	fmt.Printf("  compositor frames / flips:  %d/%d\n", sys.Gfx.SF.Frames(), sys.FB.Flips())
	fmt.Printf("  CiderPress launches:        %d (exit status %d)\n",
		sys.CiderPress.Launches(), sys.CiderPress.LastStatus())
	fmt.Println("  syslog:")
	for _, line := range sys.Syslog.Lines() {
		fmt.Printf("    %s\n", line)
	}
	if n := sys.Syslog.Dropped(); n > 0 {
		fmt.Printf("    (%d earlier lines dropped by the ring)\n", n)
	}
	if sys.Trace.Enabled() {
		fmt.Println("\n== ktrace ==")
		fmt.Print(sys.Trace.Text())
	}
	return nil
}

// runCrashes demonstrates the crash-containment pipeline end to end on
// one simulated device: two iOS apps take fatal faults, the kernel
// translates them into Mach exceptions, crashreporterd (spawned and
// supervised by launchd) receives the host-level EXC_CRASH messages and
// writes deterministic reports into the VFS, which are then read back
// and printed together with the exception/supervision counters.
func runCrashes() error {
	fmt.Println("== crash containment: two iOS apps fault under a supervised service tree ==")
	sys, err := core.NewSystem(core.ConfigCider)
	if err != nil {
		return err
	}
	sys.EnableTrace()
	if _, err := sys.BootServices(); err != nil {
		return err
	}

	// An app that takes a wild-pointer fault shortly after launch, and one
	// that aborts a little later. Both are iOS-persona, so the fatal
	// signal rides the Mach exception path, not the Linux one.
	crasher := func(after time.Duration, sig int) prog.Func {
		return func(c *prog.Call) uint64 {
			th := c.Ctx.(*kernel.Thread)
			lc := libsystem.Sys(th)
			th.Charge(after)
			lc.Kill(lc.GetPID(), sig)
			return 0
		}
	}
	apps := []struct {
		path  string
		key   string
		after time.Duration
		sig   int
	}{
		{"/Applications/Faulty.app/Faulty", "faulty-app", 40 * time.Millisecond, 11 /* SIGSEGV */},
		{"/Applications/Abort.app/Abort", "abort-app", 120 * time.Millisecond, 6 /* SIGABRT */},
	}
	for _, a := range apps {
		if err := sys.InstallIOSBinary(a.path, a.key, nil, crasher(a.after, a.sig)); err != nil {
			return err
		}
		if _, err := sys.Start(a.path, nil); err != nil {
			return err
		}
	}
	// A bystander that outlives both crashes: the simulation ends when
	// the last ordinary process exits, so this gives crashreporterd the
	// virtual time to drain its queue.
	if err := sys.InstallStaticAndroidBinary("/system/bin/bystander", "bystander", func(c *prog.Call) uint64 {
		c.Ctx.(*kernel.Thread).Charge(300 * time.Millisecond)
		return 0
	}); err != nil {
		return err
	}
	if _, err := sys.Start("/system/bin/bystander", nil); err != nil {
		return err
	}

	if err := sys.Run(); err != nil {
		var dl *sim.ErrDeadlock
		if errors.As(err, &dl) {
			fmt.Fprint(os.Stderr, dl.Report())
		}
		return err
	}

	nodes, err := sys.IOSFS.ReadDir(services.CrashLogDir)
	if err != nil {
		return fmt.Errorf("reading %s: %w", services.CrashLogDir, err)
	}
	names := make([]string, 0, len(nodes))
	for _, n := range nodes {
		names = append(names, n.Name())
	}
	sort.Strings(names)
	fmt.Printf("\n== %d crash report(s) in %s ==\n", len(names), services.CrashLogDir)
	for _, name := range names {
		body, rerr := sys.IOSFS.ReadFile(services.CrashLogDir + "/" + name)
		if rerr != nil {
			return rerr
		}
		fmt.Printf("--- %s ---\n", name)
		for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
			fmt.Printf("    %s\n", line)
		}
	}
	fmt.Println("\n== counters ==")
	for _, c := range sys.Trace.Counters() {
		switch c.Name {
		case trace.CounterExcRaised, trace.CounterExcResumed, trace.CounterCrashReports,
			trace.CounterLaunchdCrashes, trace.CounterLaunchdRespawns, trace.CounterLaunchdThrottled:
			fmt.Printf("  %-18s %d\n", c.Name, c.Value)
		}
	}
	return nil
}

// soakSetup turns the soak flags into the schedules to run (one named
// schedule, or the whole matrix) and the battery options.
func soakSetup(jobs int, quick, full bool, schedule, artifactDir string) ([]soak.Schedule, soak.Options, error) {
	opts := soak.Options{Jobs: jobs, Full: full, ArtifactDir: artifactDir}
	if quick {
		opts.Tests = soak.QuickTests()
	}
	if schedule == "" {
		return soak.Schedules(), opts, nil
	}
	s, ok := soak.ScheduleByName(schedule)
	if !ok {
		return nil, opts, fmt.Errorf("soak: unknown schedule %q", schedule)
	}
	return []soak.Schedule{s}, opts, nil
}

// runSoak drives the Fig. 5/6 batteries (plus the dedicated Mach IPC
// workload) under the fault-schedule matrix and reports the three
// invariants: deterministic digests, leak-free kernels, no deadlocks.
// Benchmark cells failing under injection is expected and reported as a
// count, not an error; a finding (leak or deadlock) exits nonzero.
func runSoak(scheds []soak.Schedule, opts soak.Options, verify bool) error {
	battery := "full lmbench"
	if opts.Tests != nil {
		battery = "quick (syscall/comm/proc)"
	}
	if opts.Full {
		battery += " + passmark"
	}
	fmt.Printf("== soak: %d schedule(s), battery: %s ==\n", len(scheds), battery)
	fmt.Printf("%-14s %-18s %6s %7s %9s  %s\n", "schedule", "digest", "cells", "failed", "injected", "verdict")

	bad := false
	for _, s := range scheds {
		r := soak.RunSchedule(s, opts)
		verdict := "ok"
		if len(r.Findings) > 0 {
			verdict = fmt.Sprintf("%d FINDING(S)", len(r.Findings))
			bad = true
		}
		if verify {
			n := opts.Jobs
			if n <= 1 {
				n = 4
			}
			if err := soak.VerifyDeterminism(s, n, opts); err != nil {
				verdict += "  NONDETERMINISTIC"
				bad = true
			} else {
				verdict += fmt.Sprintf("  deterministic@jobs=%d", n)
			}
		}
		fmt.Printf("%-14s %016x %6d %7d %9d  %s\n",
			r.Schedule, r.Digest, r.Cells, r.FailedCells, r.Injected, verdict)
		if r.Counters[trace.CounterLaunchdCrashes]+r.Counters[trace.CounterExcRaised] > 0 {
			fmt.Printf("    supervision: crashes=%d respawns=%d throttled=%d exceptions=%d reports=%d\n",
				r.Counters[trace.CounterLaunchdCrashes], r.Counters[trace.CounterLaunchdRespawns],
				r.Counters[trace.CounterLaunchdThrottled], r.Counters[trace.CounterExcRaised],
				r.Counters[trace.CounterCrashReports])
		}
		for _, f := range r.Findings {
			fmt.Printf("    finding: %s\n", f)
		}
	}
	if bad {
		return fmt.Errorf("soak: invariant violations found")
	}
	return nil
}

// runSoakExplore drives the DPOR-lite schedule explorer: every soak
// cell re-runs under N seeded perturbations of the scheduler's
// ambiguous decisions, and any invariant violation arrives as a
// minimized replay artifact.
func runSoakExplore(scheds []soak.Schedule, opts soak.Options, rounds int) error {
	fmt.Printf("== soak explore: %d schedule(s) x %d perturbation seed(s) ==\n", len(scheds), rounds)
	fmt.Printf("%-14s %-18s %9s %10s %10s  %s\n",
		"schedule", "digest", "cell-runs", "decisions", "perturbed", "verdict")
	bad := false
	for _, s := range scheds {
		r := soak.Explore(s, opts, rounds)
		verdict := "ok"
		if len(r.Findings) > 0 {
			verdict = fmt.Sprintf("%d FINDING(S)", len(r.Findings))
			bad = true
		}
		fmt.Printf("%-14s %016x %9d %10d %10d  %s\n",
			r.Schedule, r.Digest, r.CellRuns, r.Decisions, r.Perturbed, verdict)
		for _, f := range r.Findings {
			fmt.Printf("    finding: %s\n", f)
		}
	}
	if bad {
		return fmt.Errorf("soak: explore found invariant violations")
	}
	return nil
}

// runReplay re-executes one recorded cell from an artifact file and
// asserts digest equality against the recorded run.
func runReplay(path string) error {
	a, err := replay.Load(path)
	if err != nil {
		return err
	}
	if a.Kind == replay.KindDiffcheck {
		rep, rerr := diffcheck.ReplayArtifact(a)
		if rerr != nil {
			return rerr
		}
		return a.Verify(os.Stdout, rep.Digest, rep.DecisionCount, rep.Findings)
	}
	rep, rerr := soak.ReplayCell(a)
	if rerr != nil {
		return rerr
	}
	return a.Verify(os.Stdout, rep.Digest, rep.DecisionCount, rep.Findings)
}

// runReplaySmoke is the verify-gate round trip: record one soak cell,
// write the artifact through the encoder, reload it, replay the cell,
// and assert the digests match bit for bit. It exercises the same
// record/encode/decode/replay path a real failure repro uses.
func runReplaySmoke() error {
	s, ok := soak.ScheduleByName("eintr-storm")
	if !ok {
		return fmt.Errorf("replay: eintr-storm schedule missing")
	}
	cells := []replay.CellRef{
		{Bench: "mach"},
		{Bench: "lmbench", Config: lmbench.ConfigCiderIOS, Test: "null syscall"},
	}
	dir, err := os.MkdirTemp("", "cider-replay-smoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for _, ref := range cells {
		a, rec := soak.RecordCell(s, ref, nil, 0)
		path := a.Path(dir)
		if err := a.WriteFile(path); err != nil {
			return err
		}
		b, err := replay.Load(path)
		if err != nil {
			return err
		}
		rep, err := soak.ReplayCell(b)
		if err != nil {
			return err
		}
		if rep.Digest != rec.Digest {
			return fmt.Errorf("replay smoke: %s: replayed %016x, recorded %016x",
				ref, rep.Digest, rec.Digest)
		}
		fmt.Printf("replay smoke: %s under %s: %d decisions, digest %016x == replayed (bit-identical)\n",
			ref, s.Name, rec.DecisionCount, rec.Digest)
	}
	return nil
}

// runDiffcheckExplore drives the persona oracle under DPOR-lite
// schedule exploration: every seed's persona pair re-runs under N
// perturbed schedules, and any residual divergence arrives as a
// minimized replay artifact.
func runDiffcheckExplore(seeds, jobs, rounds int, artifactDir string) error {
	fmt.Printf("== diffcheck explore: %d seeds x %d perturbation round(s) ==\n", seeds, rounds)
	rep, err := diffcheck.Explore(diffcheck.Options{Seeds: seeds, Jobs: jobs, ArtifactDir: artifactDir}, rounds)
	if err != nil {
		return err
	}
	fmt.Printf("pair-runs=%d decisions=%d perturbed=%d digest=%016x findings=%d\n",
		rep.PairRuns, rep.Decisions, rep.Perturbed, rep.Digest, len(rep.Findings))
	for _, f := range rep.Findings {
		fmt.Printf("  finding: %s\n", f)
	}
	return rep.Err()
}

// runDiffcheck drives the differential persona oracle and reports. A
// residual (unallowlisted) divergence exits nonzero; the allowlist hits
// are printed so a quiet run still shows the oracle exercised the
// deliberate deviations.
func runDiffcheck(seeds, jobs int, corpus string, minimize, suggest bool, artifactDir string) error {
	fmt.Printf("== diffcheck: %d seeded programs, Android vs iOS persona ==\n", seeds)
	rep, err := diffcheck.Run(diffcheck.Options{Seeds: seeds, Jobs: jobs, Minimize: minimize, ArtifactDir: artifactDir})
	if err != nil {
		return err
	}
	fmt.Print(rep.Text())
	if corpus != "" && len(rep.Divergences) > 0 {
		if err := os.MkdirAll(corpus, 0o755); err != nil {
			return err
		}
		for i, d := range rep.Divergences {
			body := fmt.Sprintf("# %s\n# sig: %s\n%s", d.Class, d.Sig, d.Program)
			if d.Minimized != "" {
				body += "# minimized\n" + d.Minimized
			}
			name := fmt.Sprintf("%s/div-%03d-seed-%x.txt", corpus, i, d.Seed)
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				return err
			}
		}
		fmt.Printf("wrote %d diverging program(s) to %s\n", len(rep.Divergences), corpus)
	}
	if suggest && len(rep.Divergences) > 0 {
		fmt.Println("-- suggested allowlist entries (write the Why citation by hand) --")
		fmt.Print(rep.SuggestAllowlist())
	}
	if len(rep.Divergences) > 0 {
		return fmt.Errorf("diffcheck: %d unallowlisted divergence(s)", len(rep.Divergences))
	}
	return nil
}

// statsConfigs are the configurations whose syscall behaviour `cider
// stats` decomposes: the vanilla baseline plus both Cider personas
// (Fig. 5's 8.5% and 40% null-syscall columns).
func statsConfigs() []lmbench.Configuration {
	var out []lmbench.Configuration
	for _, conf := range lmbench.Configurations() {
		if conf.Name == lmbench.ConfigIPad {
			continue // real hardware in the paper; no trace hooks to compare
		}
		out = append(out, conf)
	}
	return out
}

// syscallTests filters the Fig. 5 battery down to the syscall group.
func syscallTests() []lmbench.Test {
	var out []lmbench.Test
	for _, t := range lmbench.AllTests() {
		if t.Group == "syscall" {
			out = append(out, t)
		}
	}
	return out
}

func runStats(asJSON bool, jobs int) error {
	type run struct {
		conf    lmbench.Configuration
		session *trace.Session
		null    time.Duration // null-syscall latency for the decomposition
	}
	confs := statsConfigs()
	tests := syscallTests()
	runs := make([]run, len(confs))

	// One cell per configuration: each boots its own System with its own
	// trace session, written only to runs[i], so the parallel run's
	// histograms are bit-identical to the sequential ones.
	if _, err := runner.Map(len(confs), jobs, func(i int) (struct{}, error) {
		conf := confs[i]
		var session *trace.Session
		results, err := lmbench.RunWith(conf, tests, func(sys *core.System) {
			session = sys.EnableTrace()
			session.Label = conf.Name
		})
		if err != nil {
			return struct{}{}, fmt.Errorf("%s: %w", conf.Name, err)
		}
		r := run{conf: conf, session: session}
		for _, res := range results {
			if res.Test == "null syscall" && !res.Failed {
				r.null = res.Latency
			}
		}
		runs[i] = r
		return struct{}{}, nil
	}); err != nil {
		return err
	}

	base := runs[0].null

	// The resource-governance counters: one bounded run of the
	// mem-pressure-storm and fd-exhaustion schedules, merged. These are
	// the `cider stats` jetsam numbers — how many kills per band, how
	// many pressure notifications, how many rlimit rejections — produced
	// by the same machinery the soak gate verifies.
	governance, err := soak.GovernanceCounters(jobs)
	if err != nil {
		return err
	}
	governanceKeys := func() []string {
		keys := make([]string, 0, len(governance))
		for k := range governance {
			switch {
			case strings.HasPrefix(k, "jetsam."),
				strings.HasPrefix(k, "pressure."),
				strings.HasPrefix(k, "rlimit."),
				k == trace.CounterLaunchdJetsam,
				k == trace.CounterLaunchdRespawns:
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		return keys
	}

	if asJSON {
		// One machine-scrapable document: per-config trace summaries plus
		// the null-syscall decomposition, so CI and the bench harness can
		// read counters without parsing text or stitching array elements.
		type statConfig struct {
			Config        string `json:"config"`
			NullSyscallNS int64  `json:"null_syscall_ns"`
			// NullOverheadPct is the paper's Fig. 5 decomposition: percent
			// added to the null syscall vs the baseline config (omitted
			// when either side failed).
			NullOverheadPct *float64       `json:"null_overhead_pct,omitempty"`
			Trace           *trace.Summary `json:"trace"`
		}
		doc := struct {
			Baseline string       `json:"baseline"`
			Configs  []statConfig `json:"configs"`
			// Governance carries the jetsam/pressure/rlimit counters from
			// one bounded resource-governance soak run.
			Governance map[string]uint64 `json:"governance"`
		}{Baseline: runs[0].conf.Name}
		doc.Governance = map[string]uint64{}
		for _, k := range governanceKeys() {
			doc.Governance[k] = governance[k]
		}
		for _, r := range runs {
			sc := statConfig{
				Config:        r.conf.Name,
				NullSyscallNS: r.null.Nanoseconds(),
				Trace:         r.session.Summarize(false),
			}
			if base > 0 && r.null > 0 {
				pct := 100 * (float64(r.null)/float64(base) - 1)
				sc.NullOverheadPct = &pct
			}
			doc.Configs = append(doc.Configs, sc)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}

	for _, r := range runs {
		fmt.Printf("==== %s ====\n", r.conf.Name)
		fmt.Print(r.session.Text())
		fmt.Println()
	}

	fmt.Println("==== resource governance (jetsam / pressure / rlimits) ====")
	for _, k := range governanceKeys() {
		fmt.Printf("  %-32s %d\n", k, governance[k])
	}
	fmt.Println()

	// The Fig. 5 decomposition: null-syscall overhead relative to vanilla
	// Android — the paper reports ~8.5% for the Android persona (one extra
	// persona check) and ~40% for the iOS persona (persona check + XNU
	// syscall translation + errno conversion).
	fmt.Println("==== null-syscall decomposition (Fig. 5) ====")
	for _, r := range runs {
		if r.null == 0 {
			fmt.Printf("  %-14s failed\n", r.conf.Name)
			continue
		}
		if base == 0 {
			base = r.null
		}
		overhead := 100 * (float64(r.null)/float64(base) - 1)
		fmt.Printf("  %-14s %8v  (+%.1f%% vs %s)\n",
			r.conf.Name, r.null, overhead, runs[0].conf.Name)
	}
	return nil
}
