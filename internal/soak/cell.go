package soak

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/lmbench"
	"repro/internal/passmark"
	"repro/internal/prog"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vfs"
	"repro/internal/xnu"
)

// CellRefs enumerates a schedule's cells in canonical order: the
// battery cells (see batteryCells), then the Mach IPC cell. Every soak
// digest, report and artifact indexes cells in this order, which is what
// lets a single cell re-execute in isolation: each cell is an
// independent System, so cell i's digest is the same whether its
// siblings ran or not.
func CellRefs(tests []lmbench.Test, full bool) []replay.CellRef {
	var refs []replay.CellRef
	for _, c := range batteryCells(tests, full) {
		refs = append(refs, c.ref)
	}
	return append(refs, replay.CellRef{Bench: "mach"})
}

// batteryCell is one Fig. 5 (lmbench) or Fig. 6 (passmark) cell.
type batteryCell struct {
	ref replay.CellRef
	// lm is the lmbench cell, pm the passmark configuration; ref.Bench
	// says which one is set.
	lm lmbench.Cell
	pm passmark.Configuration
}

// batteryCells enumerates the battery cells in canonical order: the
// lmbench cells (configurations in paper order, tests in battery order
// within each; nil tests means the full battery), then, when full, the
// per-configuration passmark cells.
func batteryCells(tests []lmbench.Test, full bool) []batteryCell {
	if tests == nil {
		tests = lmbench.AllTests()
	}
	var cells []batteryCell
	for _, c := range lmbench.Cells(tests) {
		cells = append(cells, batteryCell{
			ref: replay.CellRef{Bench: "lmbench", Config: c.Config.Name, Test: c.Test.Name},
			lm:  c,
		})
	}
	if full {
		for _, conf := range passmark.Configurations() {
			cells = append(cells, batteryCell{ref: replay.CellRef{Bench: "passmark", Config: conf.Name}, pm: conf})
		}
	}
	return cells
}

// fig5 reports an lmbench cell: only those boot the schedule's
// Services, Pressure and FDHog workloads and feed the latency digest.
func (c *batteryCell) fig5() bool { return c.ref.Bench == "lmbench" }

// run boots the cell's configuration through its battery's RunWith,
// with arm as the boot hook, and folds the results into the cell
// digest d and, on lmbench cells, the latency digest ld. It returns how
// many measurements failed; a run error folds nothing.
func (c *batteryCell) run(arm func(*core.System), d, ld *fault.Digest) (failed int, err error) {
	if c.fig5() {
		rs, err := lmbench.RunWith(c.lm.Config, []lmbench.Test{c.lm.Test}, arm)
		for _, r := range rs {
			mark := uint64(0)
			if r.Failed {
				mark = 1
				failed++
			}
			for _, x := range [...]*fault.Digest{d, ld} {
				x.U64(uint64(r.Latency))
				x.U64(mark)
			}
		}
		return failed, err
	}
	rs, err := passmark.RunWith(c.pm, passmark.AllTests(), arm)
	for _, r := range rs {
		mark := uint64(0)
		if r.Err != nil {
			mark = 1
			failed++
		}
		d.Str(r.Test)
		d.U64(uint64(int64(r.Score * 1e6)))
		d.U64(mark)
	}
	return failed, err
}

// CellReport is one cell's replay-facing outcome summary.
type CellReport struct {
	// Ref identifies the cell.
	Ref replay.CellRef
	// Digest fingerprints everything deterministic about the cell run:
	// benchmark results, injection counts, and the trace stream.
	Digest uint64
	// DecisionCount is how many scheduler decision points the run
	// consulted.
	DecisionCount uint64
	// Findings are the cell's invariant violations (empty = passed).
	Findings []string
	// Failed counts benchmark measurements that did not complete.
	Failed int
	// Injected counts fault-rule fires.
	Injected uint64
}

// cellOutcome is everything one cell contributes to a schedule Result.
type cellOutcome struct {
	ref      replay.CellRef
	digest   uint64
	failed   int
	injected uint64
	counters map[string]uint64
	findings []string
	// latPart fingerprints the cell's Fig. 5 latency contribution
	// (lmbench cells only; latPresent gates it).
	latPart    uint64
	latPresent bool
	// choices/decCount are the recorded scheduler decisions (set by
	// recordCell).
	choices  []replay.Choice
	decCount uint64
}

func (o *cellOutcome) report() *CellReport {
	return &CellReport{
		Ref: o.ref, Digest: o.digest, DecisionCount: o.decCount,
		Findings: o.findings, Failed: o.failed, Injected: o.injected,
	}
}

// runCellRef executes one cell in isolation. dec, when non-nil, is
// installed as the cell System's scheduler Decider (recording, replay,
// or exploration); the caller owns reading any recording back out.
func runCellRef(s Schedule, ref replay.CellRef, dec sim.Decider) cellOutcome {
	if ref.Bench == "mach" {
		return runMachCell(s, dec)
	}
	cells := batteryCells(nil, true)
	for i := range cells {
		if cells[i].ref == ref {
			return runBatteryCell(s, &cells[i], dec)
		}
	}
	return cellOutcome{ref: ref, findings: []string{fmt.Sprintf("cell %s: unknown cell", ref)}}
}

// recordCell runs one cell under a Recorder wrapping inner (nil for the
// canonical schedule, an Explorer or a Replayer otherwise) and copies
// the recording into the outcome.
func recordCell(s Schedule, ref replay.CellRef, inner sim.Decider) cellOutcome {
	rec := replay.NewRecorder(inner)
	o := runCellRef(s, ref, rec)
	o.choices = rec.Choices()
	o.decCount = rec.Count()
	return o
}

// outcome summarizes the cell run for exploration: its failure class,
// first finding and digest.
func (o *cellOutcome) outcome() replay.Outcome {
	out := replay.Outcome{Class: findingClass(o.findings), Digest: o.digest}
	if len(o.findings) > 0 {
		out.Note = o.findings[0]
	}
	return out
}

// auditSystem is every cell's last step: it folds one armed System's
// post-run state into the outcome: injection counts, the trace stream,
// supervision accounting, and the kernel leak check.
func (o *cellOutcome) auditSystem(d *fault.Digest, s Schedule, sys *core.System) {
	o.injected += sys.Fault.Fired()
	d.U64(sys.Fault.Fired())
	tr := sys.Trace
	digestSession(d, tr)
	o.collectCounters(tr)
	crashes := tr.Counter(trace.CounterLaunchdCrashes)
	respawns := tr.Counter(trace.CounterLaunchdRespawns)
	throttled := tr.Counter(trace.CounterLaunchdThrottled)
	if crashes > respawns+throttled+1 {
		o.findings = append(o.findings, fmt.Sprintf(
			"cell %s: supervision lost services: %d crashes vs %d respawns + %d throttled",
			o.ref, crashes, respawns, throttled))
	}
	if s.Pressure {
		// The foreground-survival invariant: however hard the storm blows,
		// jetsam must exhaust the idle, daemon and background bands before
		// it ever touches a foreground task — and the pressure schedules
		// never push that far, so a foreground kill is a victim-ordering
		// bug, not load shedding.
		total, perBand := sys.Kernel.Memorystatus().Kills()
		if perBand[kernel.BandForeground] != 0 {
			o.findings = append(o.findings, fmt.Sprintf(
				"cell %s: foreground-survival violated: %d foreground kill(s) of %d total",
				o.ref, perBand[kernel.BandForeground], total))
		}
	}
	if err := sys.Kernel.LeakCheck(); err != nil {
		o.findings = append(o.findings, fmt.Sprintf("cell %s: %v", o.ref, err))
	}
}

func (o *cellOutcome) collectCounters(tr *trace.Session) {
	if o.counters == nil {
		o.counters = map[string]uint64{}
	}
	for _, c := range tr.Counters() {
		o.counters[c.Name] += c.Value
	}
}

// runBatteryCell runs one battery cell under the schedule: boot its
// configuration, arm it (plus the schedule's extra workloads on lmbench
// cells), run the benchmark, fold the results, and audit the System.
func runBatteryCell(s Schedule, c *batteryCell, dec sim.Decider) cellOutcome {
	o := cellOutcome{ref: c.ref, latPresent: c.fig5()}
	d, ld := fault.NewDigest(), fault.NewDigest()
	d.Str(c.ref.Bench)
	d.Str(c.ref.Config)
	if c.fig5() {
		d.Str(c.ref.Test)
	}
	ld.Str(c.ref.Test)
	var sys *core.System
	failed, err := c.run(func(y *core.System) {
		sys = y
		y.EnableTrace()
		y.EnableFaults(s.Plan)
		y.Sim.SetDecider(dec)
		if !c.fig5() {
			return
		}
		if s.Services {
			bootCellServices(y)
		}
		if s.Pressure {
			bootCellPressure(y)
		}
		if s.FDHog {
			bootCellFDHog(y)
		}
	}, d, ld)
	o.failed = failed
	if err != nil {
		o.runFailed(s, err, d, ld)
	}
	if sys != nil {
		o.auditSystem(d, s, sys)
	}
	o.digest, o.latPart = d.Sum(), ld.Sum()
	return o
}

// runFailed folds a cell's run error into its digests and reports a
// deadlock as a finding.
func (o *cellOutcome) runFailed(s Schedule, err error, ds ...*fault.Digest) {
	for _, d := range ds {
		d.Str("err:" + err.Error())
	}
	var dl *sim.ErrDeadlock
	if errors.As(err, &dl) {
		o.findings = append(o.findings, fmt.Sprintf("cell %s deadlocked under %q: %v", o.ref, s.Name, dl.Report()))
	}
}

// runMachCell drives a purpose-built Mach IPC workload under the
// schedule. The Fig. 5/6 batteries never call mach_msg (iOS benchmark
// syscalls ride the BSD half of the XNU table), so the soak matrix
// exercises the duct-taped subsystem directly: cross-task messaging
// under queue pressure, interrupted sends/receives with bounded retry,
// dead-name notifications, and task-exit teardown of a space still
// holding live receive rights.
func runMachCell(s Schedule, dec sim.Decider) (o cellOutcome) {
	o = cellOutcome{ref: replay.CellRef{Bench: "mach"}}
	d := fault.NewDigest()
	d.Str("mach-cell")
	// Named result: the deferred digest capture must land in the value
	// the caller sees, on every return path below.
	defer func() { o.digest = d.Sum() }()

	sys, err := core.NewMinimalCider()
	if err != nil {
		o.findings = append(o.findings, fmt.Sprintf("cell %s: boot: %v", o.ref, err))
		return o
	}
	sys.EnableTrace()
	sys.EnableFaults(s.Plan)
	sys.Sim.SetDecider(dec)
	ipc := sys.IPC

	const msgs = 48
	const tick = 100 * time.Microsecond
	var sent, received, retries, gaveUp uint64
	var notified bool
	serverReady := false
	ready := sim.NewWaitQueue("soak-ready")

	spawn := func(key string, body func(*kernel.Thread)) error {
		sys.Registry.MustRegister(key, func(c *prog.Call) uint64 {
			body(c.Ctx.(*kernel.Thread))
			return 0
		})
		if ierr := prog.InstallStatic(sys.Kernel.Root().(*vfs.FS), "/bin/"+key, key); ierr != nil {
			return ierr
		}
		_, serr := sys.Start("/bin/"+key, nil)
		return serr
	}

	err = spawn("soak-mach-server", func(th *kernel.Thread) {
		port, kr := ipc.PortAllocate(th)
		if kr != xnu.KernSuccess {
			return
		}
		cr, _ := ipc.MakeSendRight(th, port)
		ipc.SetBootstrapPort(cr.Port)
		serverReady = true
		ready.WakeAll(th.Proc(), sim.WakeNormal)
		// Bounded receive loop: injected interrupts and timeouts retry,
		// but the loop always terminates even if the client gives up.
		for attempts := 0; received < msgs && attempts < msgs*8; attempts++ {
			msg, rkr := ipc.Receive(th, port, 2*tick)
			if rkr == xnu.KernSuccess {
				received++
				_ = msg
			} else {
				retries++
				th.Charge(tick / 4)
			}
		}
		// Exit without destroying the port: task-exit teardown must reap
		// the receive right and fail any still-blocked sender.
	})
	if err == nil {
		err = spawn("soak-mach-client", func(th *kernel.Thread) {
			for !serverReady {
				// An injected interrupt just re-checks the flag and
				// re-parks; the loop condition is the real gate.
				if ready.Wait(th.Proc()) == sim.WakeInterrupted {
					continue
				}
			}
			for i := 0; i < msgs; i++ {
				ok := false
				for attempts := 0; attempts < 8; attempts++ {
					kr := ipc.Send(th, xnu.BootstrapName,
						&xnu.Message{ID: int32(i), Body: []byte("soak")}, 2*tick)
					if kr == xnu.KernSuccess {
						ok = true
						break
					}
					retries++
					th.Charge(tick / 4)
				}
				if ok {
					sent++
				} else {
					gaveUp++
				}
			}
		})
	}
	if err == nil {
		err = spawn("soak-mach-notify", func(th *kernel.Thread) {
			watched, kr := ipc.PortAllocate(th)
			if kr != xnu.KernSuccess {
				return
			}
			notify, kr := ipc.PortAllocate(th)
			if kr != xnu.KernSuccess {
				return
			}
			if kr = ipc.RequestDeadNameNotification(th, watched, notify); kr != xnu.KernSuccess {
				return
			}
			ipc.PortDestroy(th, watched)
			for attempts := 0; attempts < 8; attempts++ {
				msg, rkr := ipc.Receive(th, notify, 2*tick)
				if rkr == xnu.KernSuccess && msg.ID == xnu.MsgDeadNameNotification {
					notified = true
					break
				}
				th.Charge(tick / 4)
			}
		})
	}
	if err != nil {
		o.findings = append(o.findings, fmt.Sprintf("mach cell: spawn: %v", err))
		return o
	}
	if rerr := sys.Run(); rerr != nil {
		o.runFailed(s, rerr, d)
	} else {
		// Without faults the workload must complete perfectly; under
		// injection partial completion is the point.
		if s.Name == "clean" && (sent != msgs || received != msgs || !notified) {
			o.findings = append(o.findings, fmt.Sprintf(
				"mach cell: clean run incomplete: sent=%d received=%d notified=%v", sent, received, notified))
		}
		d.U64(sent)
		d.U64(received)
		d.U64(retries)
		d.U64(gaveUp)
		if notified {
			d.U64(1)
		} else {
			d.U64(0)
		}
	}
	o.auditSystem(d, s, sys)
	return o
}

// artifactForOutcome packages a cell outcome as a replay artifact.
func artifactForOutcome(s Schedule, o *cellOutcome, exploreSeed uint64) *replay.Artifact {
	ref := o.ref
	plan := s.Plan
	a := &replay.Artifact{
		Version:       replay.ArtifactVersion,
		Kind:          replay.KindSoak,
		Schedule:      s.Name,
		Plan:          &plan,
		Services:      s.Services,
		Pressure:      s.Pressure,
		FDHog:         s.FDHog,
		Cell:          &ref,
		ExploreSeed:   exploreSeed,
		Decisions:     o.choices,
		DecisionCount: o.decCount,
		Note:          o.outcome().Note,
	}
	a.SetDigest(o.digest)
	return a
}

// RecordCell runs one cell under a Recorder (wrapping inner, which may
// be nil for the canonical schedule or an Explorer for a perturbed one)
// and returns the replay artifact plus the cell report.
func RecordCell(s Schedule, ref replay.CellRef, inner sim.Decider, exploreSeed uint64) (*replay.Artifact, *CellReport) {
	o := recordCell(s, ref, inner)
	return artifactForOutcome(s, &o, exploreSeed), o.report()
}

// ReplayCell re-executes a soak artifact's cell in isolation under its
// recorded decision log and reports the outcome; the caller compares
// CellReport.Digest against the artifact's recorded digest.
func ReplayCell(a *replay.Artifact) (*CellReport, error) {
	if a.Kind != replay.KindSoak {
		return nil, fmt.Errorf("soak: artifact kind %q is not %q", a.Kind, replay.KindSoak)
	}
	if a.Cell == nil || a.Plan == nil {
		return nil, fmt.Errorf("soak: artifact missing cell or plan")
	}
	s := Schedule{Name: a.Schedule, Plan: *a.Plan, Services: a.Services, Pressure: a.Pressure, FDHog: a.FDHog}
	o := recordCell(s, *a.Cell, replay.NewReplayer(a.Decisions))
	return o.report(), nil
}
