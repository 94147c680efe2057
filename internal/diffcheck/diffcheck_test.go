package diffcheck

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/kernel"
)

// treeSeeds is the seed count the always-on tree gate runs; big enough
// that every op kind and every fault schedule shape appears many times,
// small enough to stay a cheap tier-1 test.
const treeSeeds = 48

// TestTreeHasNoDivergences is the oracle's gate on the tree: every
// generated program must behave identically under both personas, modulo
// the cited allowlist. A failure here means a persona divergence
// regressed — the report text names the seed, the class, and a
// minimized reproducer.
func TestTreeHasNoDivergences(t *testing.T) {
	rep, err := Run(Options{Seeds: treeSeeds, Minimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Divergences) > 0 {
		t.Fatalf("unallowlisted persona divergences:\n%s", rep.Text())
	}
	// The allowlist must be load-bearing: signal ops occur across this
	// many seeds, so both translation-work counters must have fired. A
	// zero here means the oracle stopped exercising the signal path (or
	// the counters moved) and the allowlist is stale.
	for _, id := range []string{"xnu-signal-send-counter", "xnu-signal-deliver-counter"} {
		if rep.AllowHits[id] == 0 {
			t.Errorf("allowlist entry %s never matched over %d seeds", id, treeSeeds)
		}
	}
}

// TestGenerateDeterministic pins seed -> program byte-identity and that
// distinct seeds actually generate distinct programs.
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 16; seed++ {
		a, b := Generate(seed).Text(), Generate(seed).Text()
		if a != b {
			t.Fatalf("seed %d: two generations differ:\n%s\nvs\n%s", seed, a, b)
		}
	}
	if Generate(1).Text() == Generate(2).Text() {
		t.Fatal("seeds 1 and 2 generated identical programs")
	}
	// The derived fault plans must be equally deterministic.
	p1 := fmt.Sprintf("%+v", PlanFor(7))
	p2 := fmt.Sprintf("%+v", PlanFor(7))
	if p1 != p2 {
		t.Fatalf("PlanFor(7) not deterministic:\n%s\nvs\n%s", p1, p2)
	}
}

// TestReportDeterministicAcrossJobs pins the divergence report to host
// parallelism: jobs=1 and jobs=4 must produce byte-identical text. Run
// under -race this also exercises the runner fan-out for data races.
func TestReportDeterministicAcrossJobs(t *testing.T) {
	const seeds = 16
	r1, err := Run(Options{Seeds: seeds, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Run(Options{Seeds: seeds, Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Text() != r4.Text() {
		t.Fatalf("report differs across jobs:\njobs=1:\n%s\njobs=4:\n%s", r1.Text(), r4.Text())
	}
}

// TestCrossPersonaFaultErrnoCanonical is the exhaustive errno audit: for
// every declared canonical errno, injecting it at syscall dispatch must
// surface as the same canonical condition under both personas — Android
// TLS natively, iOS TLS through the BSD translation and back. EDEADLK is
// the regression case: canonical 35 is BSD's EAGAIN, so an unpinned
// errno reads back as a different condition on exactly one persona.
func TestCrossPersonaFaultErrnoCanonical(t *testing.T) {
	p := &Program{Seed: 1, Ops: []Op{{Kind: opGetPID}}}
	for _, e := range kernel.Errnos() {
		plan := fault.Plan{
			Name: "errno-audit", Seed: 1,
			Rules: []fault.Rule{{Op: fault.OpSyscall, Match: "*/getpid", Errno: int(e), Nth: 1}},
		}
		android := RunCell(p, false, plan)
		ios := RunCell(p, true, plan)
		if divs := Compare(1, android, ios); len(divs) > 0 {
			t.Errorf("injected %v (canonical %d) diverges across personas:\n%v", e, int(e), divs[0])
			continue
		}
		want := fmt.Sprintf("tls=%d", int(e))
		if len(android.Log) != 1 || !strings.Contains(android.Log[0], want) {
			t.Errorf("injected %v: android log %q does not carry %q", e, android.Log, want)
		}
	}
}

// TestMinimizerShrinksAsymmetricFault drives the minimizer with a
// deliberately persona-asymmetric fault plan (a key matching only the
// Android table) and requires the reproducer to shrink to the single
// diverging op.
func TestMinimizerShrinksAsymmetricFault(t *testing.T) {
	p := &Program{Seed: 99, Ops: []Op{
		{Kind: opGetPID},
		{Kind: opPipe, A: 0, B: 1},
		{Kind: opDup, A: 0, B: 2},
		{Kind: opSelectPoll, A: 0, B: 1, C: 2},
		{Kind: opGetPID},
	}}
	// EIO on the Android persona's first dup only: the iOS cell's dup
	// key is "ios/dup", so it proceeds normally.
	plan := fault.Plan{Name: "asym", Seed: 1, Rules: []fault.Rule{
		{Op: fault.OpSyscall, Match: "android/dup", Errno: 5, Nth: 1},
	}}
	divs, hits := Filter(CompareProgram(99, p, plan), DefaultAllowlist())
	if len(hits) != 0 {
		t.Fatalf("unexpected allowlist hits: %v", hits)
	}
	if len(divs) == 0 {
		t.Fatal("asymmetric injection produced no divergence")
	}
	target := divs[0]
	if target.Class != "result" || !strings.Contains(target.Sig, "dup") {
		t.Fatalf("unexpected first divergence: %v", target)
	}
	min := Minimize(p, plan, target, DefaultAllowlist(), 200)
	if len(min.Ops) != 1 || min.Ops[0].Kind != opDup {
		t.Fatalf("minimized to %d ops (%v), want the single dup", len(min.Ops), min.Text())
	}
}

// Per-fix oracle regressions: each program below is the minimized shape
// of a divergence the oracle located, and each fails if its fix in the
// abi/kernel layers is reverted.

// TestRegressionDupAcrossPersonas — XNU table had no dup entry (iOS dup
// returned ENOSYS).
func TestRegressionDupAcrossPersonas(t *testing.T) {
	p := &Program{Seed: 1, Ops: []Op{
		{Kind: opPipe, A: 0, B: 1},
		{Kind: opDup, A: 0, B: 2},
	}}
	if divs := CompareProgram(1, p, fault.Plan{Name: "clean", Seed: 1}); len(divs) > 0 {
		t.Fatalf("dup diverges across personas:\n%v", divs[0])
	}
}

// TestRegressionOpenCreateFlags — XNU open forwarded O_CREAT untranslated
// (iOS open+create returned ENOENT instead of creating).
func TestRegressionOpenCreateFlags(t *testing.T) {
	p := &Program{Seed: 1, Ops: []Op{
		{Kind: opOpenCreate, A: 2, B: 0},
		{Kind: opOpen, A: 2, B: 1},
	}}
	if divs := CompareProgram(1, p, fault.Plan{Name: "clean", Seed: 1}); len(divs) > 0 {
		t.Fatalf("open(O_CREAT) diverges across personas:\n%v", divs[0])
	}
}

// TestRegressionSignalBijection — the partial signal table collided
// SIGTSTP with SIGCHLD for iOS receivers. sigPool[3] is SIGTSTP;
// exercise the whole pool for good measure.
func TestRegressionSignalBijection(t *testing.T) {
	ops := make([]Op, len(sigPool))
	for i := range sigPool {
		ops[i] = Op{Kind: opSignal, A: uint64(i)}
	}
	p := &Program{Seed: 1, Ops: ops}
	divs, _ := Filter(CompareProgram(1, p, fault.Plan{Name: "clean", Seed: 1}), DefaultAllowlist())
	if len(divs) > 0 {
		t.Fatalf("signal round-trip diverges across personas:\n%v", divs[0])
	}
}

// TestRegressionEDEADLKCanonical — canonical 35 (EDEADLK) crossed the
// errno border as BSD 35 (EAGAIN) before the pinning fix.
func TestRegressionEDEADLKCanonical(t *testing.T) {
	p := &Program{Seed: 1, Ops: []Op{{Kind: opGetPID}}}
	plan := fault.Plan{Name: "edeadlk", Seed: 1, Rules: []fault.Rule{
		{Op: fault.OpSyscall, Match: "*/getpid", Errno: int(kernel.EDEADLK), Nth: 1},
	}}
	if divs := CompareProgram(1, p, plan); len(divs) > 0 {
		t.Fatalf("EDEADLK injection diverges across personas:\n%v", divs[0])
	}
}

// TestRegressionInjectionsCompared — cells armed their injector without
// trace wiring, so an injection that changes no result (a pure delay)
// fired on one persona unseen. A delay on the Android getpid alone must
// now diverge on the normalized event stream.
func TestRegressionInjectionsCompared(t *testing.T) {
	p := &Program{Seed: 1, Ops: []Op{{Kind: opGetPID}}}
	plan := fault.Plan{Name: "asym-delay", Seed: 1, Rules: []fault.Rule{
		{Op: fault.OpSyscall, Match: "android/getpid", Delay: time.Millisecond, Nth: 1},
	}}
	divs := CompareProgram(1, p, plan)
	if len(divs) == 0 {
		t.Fatal("an Android-only injection left no trace: injections are not compared")
	}
	if divs[0].Class != "events" && divs[0].Class != "counter" {
		t.Fatalf("unexpected first divergence: %v", divs[0])
	}
}

// TestAllowlistGlob pins the signature-pattern dialect.
func TestAllowlistGlob(t *testing.T) {
	cases := []struct {
		pattern, sig string
		want         bool
	}{
		{"*", "anything", true},
		{"counter:signal.xnu_send_translated", "counter:signal.xnu_send_translated", true},
		{"counter:signal.xnu_send_translated", "counter:signal.posted", false},
		{"counter:*", "counter:signal.posted", true},
		{"counter:*", "result:dup", false},
		{"*:dup", "result:dup", true},
		{"*:dup", "result:read", false},
	}
	for _, c := range cases {
		if got := matchSig(c.pattern, c.sig); got != c.want {
			t.Errorf("matchSig(%q, %q) = %v, want %v", c.pattern, c.sig, got, c.want)
		}
	}
}

// TestAllowlistEntriesJustified enforces the allowlist policy
// mechanically: every entry must carry an ID and a Why that cites the
// paper, and must match at least one counter-class signature (behavioral
// classes may not be blanket-allowed).
func TestAllowlistEntriesJustified(t *testing.T) {
	for _, a := range DefaultAllowlist() {
		if a.ID == "" || a.Match == "" {
			t.Errorf("allowlist entry %+v missing ID or Match", a)
		}
		if len(a.Why) < 40 || !strings.Contains(a.Why, "Cider") {
			t.Errorf("allowlist entry %s: Why must cite the paper (got %q)", a.ID, a.Why)
		}
		if !strings.HasPrefix(a.Match, "counter:") {
			t.Errorf("allowlist entry %s allows behavioral class %q — only measurement counters may be allowlisted", a.ID, a.Match)
		}
	}
}
