package soak

import (
	"sync"
	"testing"

	"repro/internal/replay"
	"repro/internal/runner"
	"repro/internal/trace"
)

// quickDigests are the quick-battery schedule digests, pinned across
// commits: a refactor that shifts any cell's simulation, trace or fold
// order moves them.
var quickDigests = map[string]uint64{
	"clean":              0x5d2b5024ac8c9a0b,
	"eintr-storm":        0xd2fcc8d3c2ccbfcf,
	"errno-storm":        0x9e160878082abdd8,
	"enomem":             0x3bb09902e15723c9,
	"vfs-eio":            0xcabc1fd24e544f68,
	"mach-pressure":      0x8fb817f570345e10,
	"daemon-crash":       0xeafd196d75cf3265,
	"app-crash-storm":    0x3413493b679a0998,
	"mem-pressure-storm": 0x9e6b026b13b29d03,
	"fd-exhaustion":      0x942717b5aa7a10a2,
}

// quickRun is one schedule's quick battery run twice: recorded at
// jobs=1, the way RunSchedule runs it, and unrecorded (nil decider) at
// jobs=4. The tests below share these runs through quickRunOf, so each
// battery runs twice per test binary however many properties are
// checked on it.
type quickRun struct {
	s Schedule
	// recorded/r are the recorded jobs=1 cells and their merged result;
	// bare/b the unrecorded jobs=4 ones.
	recorded, bare []cellOutcome
	r, b           *Result
}

var (
	quickRunsMu sync.Mutex
	quickRuns   = map[string]*quickRun{}
)

// quickRunOf returns the named schedule's shared quick run, running it
// on first use.
func quickRunOf(t *testing.T, name string) *quickRun {
	t.Helper()
	quickRunsMu.Lock()
	defer quickRunsMu.Unlock()
	if q, ok := quickRuns[name]; ok {
		return q
	}
	s, ok := ScheduleByName(name)
	if !ok {
		t.Fatalf("schedule %q missing from matrix", name)
	}
	refs := CellRefs(QuickTests(), false)
	dir := t.TempDir()
	q := &quickRun{s: s, r: &Result{Schedule: name}, b: &Result{Schedule: name}}
	q.recorded, _ = runner.Map(len(refs), 1, func(i int) (cellOutcome, error) {
		return recordCell(s, refs[i], nil), nil
	})
	q.r.merge(s, q.recorded, dir)
	q.bare, _ = runner.Map(len(refs), 4, func(i int) (cellOutcome, error) {
		return runCellRef(s, refs[i], nil), nil
	})
	q.b.merge(s, q.bare, dir)
	quickRuns[name] = q
	return q
}

// TestFaultSchedulesSurvivable runs every schedule in the matrix on the
// quick battery: no finding (no deadlock, leak, lost service or
// foreground kill), rules fire unless the schedule has none, and the
// digest equals its pin.
func TestFaultSchedulesSurvivable(t *testing.T) {
	for _, s := range Schedules() {
		t.Run(s.Name, func(t *testing.T) {
			r := quickRunOf(t, s.Name).r
			if err := r.Err(); err != nil {
				t.Fatal(err)
			}
			// Rule-free schedules (clean, fd-exhaustion, whose storm is the
			// workload itself) must not inject anything.
			if len(s.Plan.Rules) > 0 && r.Injected == 0 {
				t.Errorf("schedule %q never fired a fault", s.Name)
			}
			if len(s.Plan.Rules) == 0 && r.Injected != 0 {
				t.Errorf("rule-free schedule %q injected %d faults", s.Name, r.Injected)
			}
			if want, ok := quickDigests[s.Name]; !ok || r.Digest != want {
				t.Errorf("schedule %q digest %016x, pinned %016x", s.Name, r.Digest, want)
			}
			t.Logf("%s: digest=%016x cells=%d failed=%d injected=%d",
				r.Schedule, r.Digest, r.Cells, r.FailedCells, r.Injected)
		})
	}
}

// TestCleanScheduleLeakFree is the control: the quick battery with no
// faults armed must finish with zero findings — every cell's kernel
// passes LeakCheck after a clean run.
func TestCleanScheduleLeakFree(t *testing.T) {
	r := quickRunOf(t, "clean").r
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if r.Injected != 0 {
		t.Fatalf("clean schedule injected %d faults", r.Injected)
	}
}

// checkJobsInvariant requires each named schedule's schedule and
// latency digests to be equal at jobs=1 and jobs=4. The digest covers
// cell results, every cell's trace event stream, counters and injection
// counts, so host scheduling leaking into the simulation shows up here.
func checkJobsInvariant(t *testing.T, names ...string) {
	t.Helper()
	for _, name := range names {
		q := quickRunOf(t, name)
		if q.b.Digest != q.r.Digest || q.b.LatencyDigest != q.r.LatencyDigest {
			t.Errorf("%s: jobs=1 digests %016x/%016x, jobs=4 %016x/%016x",
				name, q.r.Digest, q.r.LatencyDigest, q.b.Digest, q.b.LatencyDigest)
		}
	}
}

// TestDeterminismAcrossJobs is the acceptance criterion for the control
// and the injection schedules: identical digests at jobs=1 and jobs=4.
// The crash and governance schedules have their own tests below.
func TestDeterminismAcrossJobs(t *testing.T) {
	checkJobsInvariant(t, "clean", "eintr-storm", "errno-storm", "enomem", "vfs-eio", "mach-pressure")
}

// TestCrashSchedulesDeterministic is the crash-storm half of the
// determinism criterion: killing daemons and apps mid-battery — with
// exception delivery, crash reports, SIGCHLD reaping, backoff sleeps and
// respawns in the mix — must still produce bit-identical digests at
// jobs=1 and jobs=4.
func TestCrashSchedulesDeterministic(t *testing.T) {
	checkJobsInvariant(t, "daemon-crash", "app-crash-storm")
}

// TestGovernanceSchedulesDeterministic is the resource-governance half
// of the determinism criterion: jetsam storms (notify, shed, kill,
// respawn) and descriptor exhaustion must still produce bit-identical
// digests at jobs=1 and jobs=4.
func TestGovernanceSchedulesDeterministic(t *testing.T) {
	checkJobsInvariant(t, "mem-pressure-storm", "fd-exhaustion")
}

// TestRepeatedRunsBitIdentical runs one faulted schedule twice and
// requires the same digest and the same per-cell digests — no host
// randomness anywhere in the injection or simulation path.
func TestRepeatedRunsBitIdentical(t *testing.T) {
	q := quickRunOf(t, "errno-storm")
	if q.r.Digest != q.b.Digest {
		t.Fatalf("same schedule, different digests: %016x vs %016x", q.r.Digest, q.b.Digest)
	}
	for i := range q.recorded {
		if q.recorded[i].digest != q.bare[i].digest {
			t.Errorf("cell %s: digests %016x vs %016x",
				q.recorded[i].ref, q.recorded[i].digest, q.bare[i].digest)
		}
	}
}

// TestRecordingDoesNotChangeDigest pins the canonical-equivalence
// property recording-by-default rests on: on every schedule, every cell
// run under a canonical Recorder produces the same digest and latency
// part as the same cell run with no Decider at all. The decision-heavy
// daemon-crash mach cell must also have consulted its recorder.
func TestRecordingDoesNotChangeDigest(t *testing.T) {
	for _, s := range Schedules() {
		q := quickRunOf(t, s.Name)
		for i := range q.recorded {
			rec, bare := &q.recorded[i], &q.bare[i]
			if rec.digest != bare.digest || rec.latPart != bare.latPart {
				t.Errorf("%s cell %s: recorded digest %016x/%016x, unrecorded %016x/%016x",
					s.Name, rec.ref, rec.digest, rec.latPart, bare.digest, bare.latPart)
			}
		}
	}
	q := quickRunOf(t, "daemon-crash")
	if mach := q.recorded[len(q.recorded)-1]; mach.ref.Bench != "mach" || mach.decCount == 0 {
		t.Errorf("daemon-crash cell %s: recorder consulted no decisions", mach.ref)
	}
}

// TestRecordReplayBitIdentical is the record/replay criterion: for
// every schedule in the soak matrix, every quick-battery cell records to
// an artifact that — after a full encode/decode round trip through the
// file format — replays to the exact same digest, decision count and
// findings in isolation.
func TestRecordReplayBitIdentical(t *testing.T) {
	dir := t.TempDir()
	for _, s := range Schedules() {
		q := quickRunOf(t, s.Name)
		for i := range q.recorded {
			rec := q.recorded[i].report()
			a := artifactForOutcome(s, &q.recorded[i], 0)
			path := a.Path(dir)
			if err := a.WriteFile(path); err != nil {
				t.Fatal(err)
			}
			loaded, err := replay.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := ReplayCell(loaded)
			if err != nil {
				t.Fatalf("%s cell %s: %v", s.Name, rec.Ref, err)
			}
			if rep.Digest != rec.Digest || rep.DecisionCount != rec.DecisionCount ||
				len(rep.Findings) != len(rec.Findings) {
				t.Errorf("%s cell %s: replayed digest %016x, %d decisions, findings %v; recorded %016x, %d, %v",
					s.Name, rec.Ref, rep.Digest, rep.DecisionCount, rep.Findings,
					rec.Digest, rec.DecisionCount, rec.Findings)
			}
		}
	}
}

// TestDaemonCrashKeepsFig5Latencies is the paper-fidelity criterion:
// service daemons crashing and respawning between benchmark operations
// must not perturb the Fig. 5 latency table at all, even though
// services demonstrably crashed, respawned and wrote crash reports.
func TestDaemonCrashKeepsFig5Latencies(t *testing.T) {
	q := quickRunOf(t, "daemon-crash")
	if err := q.r.Err(); err != nil {
		t.Fatal(err)
	}
	if q.r.Injected == 0 {
		t.Fatal("daemon-crash never fired a fault")
	}
	checkDaemonCrash(t, q.r, quickRunOf(t, "clean").r.LatencyDigest)
}

// TestPressureStormSparesForeground is the governance counterpart of
// the daemon-crash fidelity test; checkPressureStorm lists its criteria.
func TestPressureStormSparesForeground(t *testing.T) {
	q := quickRunOf(t, "mem-pressure-storm")
	if err := q.r.Err(); err != nil {
		t.Fatal(err)
	}
	if q.r.Injected == 0 {
		t.Fatal("mem-pressure-storm never fired a fault")
	}
	checkPressureStorm(t, q.r, quickRunOf(t, "clean").r.LatencyDigest)
}

// checkDaemonCrash compares the daemon-crash latency digest with the
// clean schedule's and requires crashes, respawns, exceptions and crash
// reports to have happened.
func checkDaemonCrash(t *testing.T, r *Result, cleanLat uint64) {
	t.Helper()
	if r.LatencyDigest != cleanLat {
		t.Errorf("daemon crashes perturbed Fig. 5 latencies: clean %016x vs daemon-crash %016x",
			cleanLat, r.LatencyDigest)
	}
	for _, c := range []string{
		trace.CounterLaunchdCrashes,
		trace.CounterLaunchdRespawns,
		trace.CounterExcRaised,
		trace.CounterCrashReports,
	} {
		if r.Counters[c] == 0 {
			t.Errorf("daemon-crash recorded no %s", c)
		}
	}
	t.Logf("daemon-crash: crashes=%d respawns=%d throttled=%d reports=%d",
		r.Counters[trace.CounterLaunchdCrashes], r.Counters[trace.CounterLaunchdRespawns],
		r.Counters[trace.CounterLaunchdThrottled], r.Counters[trace.CounterCrashReports])
}

// checkPressureStorm is the governance counterpart: a memory-pressure
// storm that demonstrably notifies, kills, and triggers jetsam respawns
// must (a) never reap a foreground- or background-band task — kills land
// idle-first, exactly jetsam's point — (b) have launchd account every
// reaped daemon as a jetsam rather than a crash, and (c) leave the
// Fig. 5 latency digest bit-identical to the clean schedule's.
func checkPressureStorm(t *testing.T, r *Result, cleanLat uint64) {
	t.Helper()
	if r.LatencyDigest != cleanLat {
		t.Errorf("pressure storm perturbed Fig. 5 latencies: clean %016x vs storm %016x",
			cleanLat, r.LatencyDigest)
	}
	kills := r.Counters[trace.CounterJetsamKills]
	if kills == 0 {
		t.Error("pressure storm reaped nobody")
	}
	if r.Counters[trace.CounterPressureNotify] == 0 {
		t.Error("pressure storm delivered no notifications")
	}
	for _, band := range []string{"foreground", "background"} {
		if n := r.Counters[trace.CounterJetsamKills+"."+band]; n != 0 {
			t.Errorf("jetsam reaped %d %s-band task(s); kills must land idle-first", n, band)
		}
	}
	if got := r.Counters[trace.CounterJetsamKills+".idle"] +
		r.Counters[trace.CounterJetsamKills+".daemon"]; got != kills {
		t.Errorf("per-band kill counts (%d) do not account for all %d kills", got, kills)
	}
	if r.Counters[trace.CounterLaunchdJetsam] == 0 {
		t.Error("launchd accounted no reaped daemon as a jetsam")
	}
	if r.Counters[trace.CounterLaunchdThrottled] != 0 {
		t.Error("jetsam respawns charged the crash-loop throttle")
	}
	t.Logf("mem-pressure-storm: kills=%d (idle=%d daemon=%d) notify=%d launchd.jetsam=%d",
		kills, r.Counters[trace.CounterJetsamKills+".idle"],
		r.Counters[trace.CounterJetsamKills+".daemon"],
		r.Counters[trace.CounterPressureNotify], r.Counters[trace.CounterLaunchdJetsam])
}
