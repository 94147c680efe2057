package soak

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/ducttape"
	"repro/internal/fault"
	"repro/internal/hw"
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
// lmbench cells (configurations in paper order, tests in battery order
// within each), the per-configuration passmark cells when full, then
// the Mach IPC cell. Every soak digest, report and artifact indexes
// cells in this order, which is what lets a single cell re-execute in
// isolation: each cell is an independent System, so cell i's digest is
// the same whether its siblings ran or not.
func CellRefs(tests []lmbench.Test, full bool) []replay.CellRef {
	if tests == nil {
		tests = lmbench.AllTests()
	}
	var refs []replay.CellRef
	for _, c := range lmbench.Cells(tests) {
		refs = append(refs, replay.CellRef{Bench: "lmbench", Config: c.Config.Name, Test: c.Test.Name})
	}
	if full {
		for _, conf := range passmark.Configurations() {
			refs = append(refs, replay.CellRef{Bench: "passmark", Config: conf.Name})
		}
	}
	refs = append(refs, replay.CellRef{Bench: "mach"})
	return refs
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
	switch ref.Bench {
	case "lmbench":
		return runLmbenchCell(s, ref, dec)
	case "passmark":
		return runPassmarkCell(s, ref, dec)
	case "mach":
		return runMachCell(s, dec)
	}
	return cellOutcome{ref: ref, findings: []string{fmt.Sprintf("unknown cell bench %q", ref.Bench)}}
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

// auditSystem folds one booted System's post-run state into the
// outcome: injection counts, the trace stream, supervision accounting,
// and the kernel leak check.
func (o *cellOutcome) auditSystem(d *fault.Digest, s Schedule, sys *core.System) {
	if sys.Fault != nil {
		o.injected += sys.Fault.Fired()
		d.U64(sys.Fault.Fired())
	}
	digestSession(d, sys.Trace)
	o.collectCounters(sys.Trace)
	if crashes, respawns, throttled := supervisionCounters(sys.Trace); crashes > respawns+throttled+1 {
		o.findings = append(o.findings, fmt.Sprintf(
			"cell %s: supervision lost services: %d crashes vs %d respawns + %d throttled",
			o.ref, crashes, respawns, throttled))
	}
	if s.Pressure && sys.Kernel != nil {
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
	if tr == nil {
		return
	}
	if o.counters == nil {
		o.counters = map[string]uint64{}
	}
	for _, c := range tr.Counters() {
		o.counters[c.Name] += c.Value
	}
}

func lmbenchConfByName(name string) (lmbench.Configuration, bool) {
	for _, c := range lmbench.Configurations() {
		if c.Name == name {
			return c, true
		}
	}
	return lmbench.Configuration{}, false
}

func lmbenchTestByName(name string) (lmbench.Test, bool) {
	for _, t := range lmbench.AllTests() {
		if t.Name == name {
			return t, true
		}
	}
	return lmbench.Test{}, false
}

func runLmbenchCell(s Schedule, ref replay.CellRef, dec sim.Decider) cellOutcome {
	o := cellOutcome{ref: ref, latPresent: true}
	d := fault.NewDigest()
	d.Str("lmbench")
	d.Str(ref.Config)
	d.Str(ref.Test)
	ld := fault.NewDigest()
	ld.Str(ref.Test)

	conf, okC := lmbenchConfByName(ref.Config)
	test, okT := lmbenchTestByName(ref.Test)
	if !okC || !okT {
		o.findings = append(o.findings, fmt.Sprintf("cell %s: unknown lmbench config/test", ref))
		o.digest, o.latPart = d.Sum(), ld.Sum()
		return o
	}
	var sys *core.System
	rs, err := lmbench.RunWith(conf, []lmbench.Test{test}, func(y *core.System) {
		y.EnableTrace()
		y.EnableFaults(s.Plan)
		if s.Services {
			bootCellServices(y)
		}
		if s.Pressure {
			bootCellPressure(y)
		}
		if s.FDHog {
			bootCellFDHog(y)
		}
		if dec != nil {
			y.Sim.SetDecider(dec)
		}
		sys = y
	})
	if err != nil {
		d.Str("err:" + err.Error())
		ld.Str("err:" + err.Error())
		var dl *sim.ErrDeadlock
		if errors.As(err, &dl) {
			o.findings = append(o.findings, fmt.Sprintf("cell %s deadlocked under %q: %v", ref, s.Name, dl.Report()))
		}
	} else {
		for _, r := range rs {
			d.U64(uint64(r.Latency))
			ld.U64(uint64(r.Latency))
			if r.Failed {
				d.U64(1)
				ld.U64(1)
				o.failed++
			} else {
				d.U64(0)
				ld.U64(0)
			}
		}
	}
	if sys != nil {
		o.auditSystem(d, s, sys)
	}
	o.digest, o.latPart = d.Sum(), ld.Sum()
	return o
}

func runPassmarkCell(s Schedule, ref replay.CellRef, dec sim.Decider) cellOutcome {
	o := cellOutcome{ref: ref}
	d := fault.NewDigest()
	d.Str("passmark")
	d.Str(ref.Config)

	var conf passmark.Configuration
	found := false
	for _, c := range passmark.Configurations() {
		if c.Name == ref.Config {
			conf, found = c, true
			break
		}
	}
	if !found {
		o.findings = append(o.findings, fmt.Sprintf("cell %s: unknown passmark config", ref))
		o.digest = d.Sum()
		return o
	}
	var sys *core.System
	rs, err := passmark.RunWith(conf, passmark.AllTests(), func(y *core.System) {
		y.EnableTrace()
		y.EnableFaults(s.Plan)
		if dec != nil {
			y.Sim.SetDecider(dec)
		}
		sys = y
	})
	if err != nil {
		d.Str("err:" + err.Error())
		var dl *sim.ErrDeadlock
		if errors.As(err, &dl) {
			o.findings = append(o.findings, fmt.Sprintf("cell %s deadlocked under %q: %v", ref, s.Name, dl.Report()))
		}
	} else {
		for _, r := range rs {
			d.Str(r.Test)
			d.U64(uint64(int64(r.Score * 1e6)))
			if r.Err != nil {
				d.U64(1)
				o.failed++
			} else {
				d.U64(0)
			}
		}
	}
	if sys != nil {
		o.auditSystem(d, s, sys)
	}
	o.digest = d.Sum()
	return o
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

	sm := sim.New()
	k, err := kernel.New(sm, kernel.Config{
		Profile: kernel.ProfileCider, Device: hw.Nexus7(),
		Root: vfs.New(), Registry: prog.NewRegistry(),
	})
	if err != nil {
		o.findings = append(o.findings, fmt.Sprintf("mach cell: boot: %v", err))
		return o
	}
	k.InstallLinuxTable()
	k.RegisterBinFmt(&kernel.ELFLoader{})
	ipc, err := xnu.InstallIPC(k, ducttape.NewEnv(k))
	if err != nil {
		o.findings = append(o.findings, fmt.Sprintf("mach cell: ipc: %v", err))
		return o
	}
	tr := trace.NewSession("mach-cell")
	sm.SetSink(tr)
	k.SetTracer(tr)
	if dec != nil {
		sm.SetDecider(dec)
	}
	in := fault.NewInjector(s.Plan)
	in.OnInject = func(op fault.Op, key string, out fault.Outcome, now time.Duration) {
		proc, id := "", 0
		if cur := sm.Current(); cur != nil {
			proc, id = cur.Name(), cur.ID()
		}
		tr.Fault(proc, id, op.String(), key, out.Errno, now)
	}
	k.EnableFaults(in)

	const msgs = 48
	const tick = 100 * time.Microsecond
	var sent, received, retries, gaveUp uint64
	var notified bool
	serverReady := false
	ready := sim.NewWaitQueue("soak-ready")

	spawn := func(key string, body func(*kernel.Thread)) error {
		k.Registry().MustRegister(key, func(c *prog.Call) uint64 {
			body(c.Ctx.(*kernel.Thread))
			return 0
		})
		bin, berr := prog.StaticELF(key)
		if berr != nil {
			return berr
		}
		if werr := k.Root().(*vfs.FS).WriteFile("/bin/"+key, bin); werr != nil {
			return werr
		}
		_, serr := k.StartProcess("/bin/"+key, nil)
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
	if rerr := sm.Run(); rerr != nil {
		d.Str("mach-err:" + rerr.Error())
		var dl *sim.ErrDeadlock
		if errors.As(rerr, &dl) {
			o.findings = append(o.findings, fmt.Sprintf("mach cell deadlocked under %q: %v", s.Name, dl.Report()))
		}
		return o
	}
	if s.Name == "clean" {
		// Without faults the workload must complete perfectly; under
		// injection partial completion is the point.
		if sent != msgs || received != msgs || !notified {
			o.findings = append(o.findings, fmt.Sprintf(
				"mach cell: clean run incomplete: sent=%d received=%d notified=%v", sent, received, notified))
		}
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
	fired := in.Fired()
	o.injected += fired
	d.U64(fired)
	digestSession(d, tr)
	o.collectCounters(tr)
	if lerr := k.LeakCheck(); lerr != nil {
		o.findings = append(o.findings, fmt.Sprintf("mach cell (%s): %v", s.Name, lerr))
	}
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
