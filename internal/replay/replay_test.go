package replay

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/sim"
)

// TestArtifactRoundTripByteEqual pins the canonical encoding:
// encode -> decode -> encode must be byte-identical, for both kinds and
// with every optional field populated.
func TestArtifactRoundTripByteEqual(t *testing.T) {
	arts := []*Artifact{
		{
			Version:  ArtifactVersion,
			Kind:     KindSoak,
			Schedule: "daemon-crash",
			Plan: &fault.Plan{Name: "daemon-crash", Seed: 0x5eed0006, Rules: []fault.Rule{
				{Op: fault.OpCrash, Match: "/sbin/notifyd", Nth: 4, Errno: 11},
				{Op: fault.OpPark, Match: "waitq:pipe", Every: 3, Delay: 2 * time.Millisecond},
			}},
			Services:      true,
			Cell:          &CellRef{Bench: "lmbench", Test: "null syscall", Config: "cider-ios"},
			ExploreSeed:   7,
			Decisions:     []Choice{{Pos: 3, Index: 1}, {Pos: 9, Index: 2}},
			DecisionCount: 42,
			Note:          "deadlock",
		},
		{
			Version:       ArtifactVersion,
			Kind:          KindDiffcheck,
			Seed:          0x2a,
			Decisions:     []Choice{{Pos: 0, Index: 1}},
			DecisionsIOS:  []Choice{{Pos: 5, Index: 3}},
			DecisionCount: 12,
		},
	}
	for _, a := range arts {
		a.SetDigest(0xdeadbeefcafe0042)
		b1, err := a.Encode()
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Decode(b1)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := dec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("%s artifact not canonical:\n%s\nvs\n%s", a.Kind, b1, b2)
		}
		if v, err := dec.DigestValue(); err != nil || v != 0xdeadbeefcafe0042 {
			t.Fatalf("digest round trip: %x, %v", v, err)
		}
	}
}

// TestDecodeRejects pins version and kind validation.
func TestDecodeRejects(t *testing.T) {
	if _, err := Decode([]byte(`{"version":99,"kind":"soak"}`)); err == nil {
		t.Error("unknown version accepted")
	}
	if _, err := Decode([]byte(`{"version":1,"kind":"fuzz"}`)); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := Decode([]byte(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

// TestRecorderCanonicalIsEmpty pins the sparse-log invariant: recording
// the canonical schedule (nil inner) logs no choices and always answers
// 0, so recording cannot perturb an execution.
func TestRecorderCanonicalIsEmpty(t *testing.T) {
	r := NewRecorder(nil)
	for i := 0; i < 100; i++ {
		if got := r.Decide(sim.DecisionWake, "waitq:pipe", 2+i%3, 0); got != 0 {
			t.Fatalf("canonical recorder chose %d", got)
		}
	}
	if r.Count() != 100 {
		t.Fatalf("count = %d, want 100", r.Count())
	}
	if len(r.Choices()) != 0 {
		t.Fatalf("canonical run logged %d choices", len(r.Choices()))
	}
}

// TestRecorderClampsInner ensures a misbehaving inner policy cannot
// push an out-of-range index into the simulator.
func TestRecorderClampsInner(t *testing.T) {
	r := NewRecorder(deciderFunc(func(int) int { return 99 }))
	if got := r.Decide(sim.DecisionNext, "", 3, 0); got != 2 {
		t.Fatalf("clamp: got %d, want 2", got)
	}
	if ch := r.Choices(); len(ch) != 1 || ch[0] != (Choice{Pos: 0, Index: 2}) {
		t.Fatalf("choices = %v", ch)
	}
}

type deciderFunc func(n int) int

func (f deciderFunc) Decide(_ sim.DecisionKind, _ string, n int, _ time.Duration) int {
	return f(n)
}

// TestExplorerDeterministic pins the explorer as a pure function of
// (seed, consultation order), and that distinct seeds actually explore
// distinct schedules.
func TestExplorerDeterministic(t *testing.T) {
	run := func(seed uint64) []int {
		e := &Explorer{Seed: seed}
		out := make([]int, 200)
		for i := range out {
			out[i] = e.Decide(sim.DecisionKind(i%int(sim.NumDecisionKinds)), "w", 2+i%4, 0)
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 explored identical schedules")
	}
	// The explorer must actually perturb: over 200 decisions with n>=2,
	// a policy that always answers 0 is not exploring.
	nonzero := 0
	for _, v := range a {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("explorer never took a non-canonical choice")
	}
}

// TestReplayerReplaysAndClamps pins positional replay and the
// divergence clamp.
func TestReplayerReplaysAndClamps(t *testing.T) {
	r := NewReplayer([]Choice{{Pos: 1, Index: 1}, {Pos: 2, Index: 7}})
	if got := r.Decide(sim.DecisionWake, "", 3, 0); got != 0 {
		t.Fatalf("pos 0: got %d, want canonical 0", got)
	}
	if got := r.Decide(sim.DecisionWake, "", 3, 0); got != 1 {
		t.Fatalf("pos 1: got %d, want 1", got)
	}
	// Logged index 7 is out of range for n=3: clamp, don't panic.
	if got := r.Decide(sim.DecisionWake, "", 3, 0); got != 2 {
		t.Fatalf("pos 2: got %d, want clamped 2", got)
	}
}

// TestRecordReplayIdentity: recording an explored run and replaying its
// choice log must reproduce the exact same decision sequence.
func TestRecordReplayIdentity(t *testing.T) {
	rec := NewRecorder(&Explorer{Seed: 3})
	want := make([]int, 300)
	for i := range want {
		want[i] = rec.Decide(sim.DecisionWake, "w", 2+i%5, 0)
	}
	rep := NewReplayer(rec.Choices())
	for i := range want {
		if got := rep.Decide(sim.DecisionWake, "w", 2+i%5, 0); got != want[i] {
			t.Fatalf("decision %d: replayed %d, recorded %d", i, got, want[i])
		}
	}
}

// TestMinimizeChoices pins the delta-debug shape on a choice log: only
// load-bearing choices survive.
func TestMinimizeChoices(t *testing.T) {
	in := []Choice{{Pos: 1, Index: 1}, {Pos: 4, Index: 2}, {Pos: 9, Index: 1}, {Pos: 12, Index: 3}}
	// Failure reproduces iff positions 4 and 12 are both present.
	repro := func(c []Choice) bool {
		has := map[uint64]bool{}
		for _, ch := range c {
			has[ch.Pos] = true
		}
		return has[4] && has[12]
	}
	min := Minimize(in, 64, repro)
	if len(min) != 2 || min[0].Pos != 4 || min[1].Pos != 12 {
		t.Fatalf("minimized to %v, want positions 4 and 12", min)
	}
	// A non-reproducing input comes back unchanged (nothing to shrink to).
	same := Minimize(in, 64, func([]Choice) bool { return false })
	if len(same) != len(in) {
		t.Fatalf("non-reproducing input shrank to %v", same)
	}
	// The budget caps trials: one trial can drop only the last choice.
	trials := 0
	capped := Minimize(in, 1, func([]Choice) bool { trials++; return true })
	if trials != 1 || len(capped) != len(in)-1 {
		t.Fatalf("budget 1: %d trials, %d choices left", trials, len(capped))
	}
}

// fakePair is a two-simulator cell for Failure tests: each simulator
// consults 16 decision points with 3 alternatives, and the cell fails
// with class "boom" iff simulator 0 deviates at position 4 and
// simulator 1 at position 9.
func fakePair(decs []sim.Decider) Outcome {
	var taken [2]map[int]bool
	d := fault.NewDigest()
	for j, dec := range decs {
		taken[j] = map[int]bool{}
		for pos := 0; pos < 16; pos++ {
			idx := dec.Decide(sim.DecisionWake, "w", 3, 0)
			d.U64(uint64(idx))
			if idx != 0 {
				taken[j][pos] = true
			}
		}
	}
	out := Outcome{Digest: d.Sum()}
	if taken[0][4] && taken[1][9] {
		out.Class, out.Note = "boom", "boom happened"
	}
	return out
}

// TestFailureReproduceMinimizes drives the shared explore-failure path:
// both logs shrink to their load-bearing choice, the artifact records
// the minimized re-run, and the finding names the written file.
func TestFailureReproduceMinimizes(t *testing.T) {
	logs := [][]Choice{
		{{Pos: 1, Index: 1}, {Pos: 4, Index: 1}, {Pos: 6, Index: 2}, {Pos: 11, Index: 1}},
		{{Pos: 0, Index: 2}, {Pos: 9, Index: 2}, {Pos: 13, Index: 1}},
	}
	orig := fakePair([]sim.Decider{NewReplayer(logs[0]), NewReplayer(logs[1])})
	if orig.Class != "boom" {
		t.Fatal("fixture does not fail")
	}
	dir := t.TempDir()
	f := Failure{
		Artifact: Artifact{Version: ArtifactVersion, Kind: KindDiffcheck, Seed: 0x2a, ExploreSeed: 3},
		Logs:     logs,
		Count:    32,
		Outcome:  orig,
		Run:      fakePair,
	}
	finding, path := f.Reproduce(dir, 64, "seed 0x2a", "explore round 3")
	if path != filepath.Join(dir, "cider-replay-diffcheck-seed-2a-x3.json") {
		t.Fatalf("artifact path %q", path)
	}
	want := "seed 0x2a (explore round 3, 2/7 non-canonical choices after minimization): reproduce with: cider replay " + path
	if finding != want {
		t.Fatalf("finding\n got %s\nwant %s", finding, want)
	}
	a, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Decisions) != 1 || a.Decisions[0].Pos != 4 || len(a.DecisionsIOS) != 1 || a.DecisionsIOS[0].Pos != 9 {
		t.Fatalf("minimized logs %v / %v", a.Decisions, a.DecisionsIOS)
	}
	min := fakePair([]sim.Decider{NewReplayer(a.Decisions), NewReplayer(a.DecisionsIOS)})
	if a.DecisionCount != 32 || a.Note != "boom happened" || a.Digest != fmt.Sprintf("%016x", min.Digest) {
		t.Fatalf("artifact does not describe the minimized run: %+v", a)
	}
}

// TestFailureReproduceFallsBack: when the re-run under the minimized
// logs no longer fails, the artifact keeps the original recording.
func TestFailureReproduceFallsBack(t *testing.T) {
	logs := [][]Choice{{{Pos: 4, Index: 1}, {Pos: 7, Index: 2}}, {{Pos: 9, Index: 1}}}
	orig := fakePair([]sim.Decider{NewReplayer(logs[0]), NewReplayer(logs[1])})
	f := Failure{
		Artifact: Artifact{Version: ArtifactVersion, Kind: KindDiffcheck, Seed: 7},
		Logs:     logs,
		Count:    32,
		Outcome:  orig,
		// A flaky cell: nothing after the original run fails.
		Run: func([]sim.Decider) Outcome { return Outcome{Digest: 1} },
	}
	finding, path := f.Reproduce(t.TempDir(), 64, "seed 0x7", "explore round 1")
	if !strings.Contains(finding, "(explore round 1, 3/3 non-canonical choices") {
		t.Fatalf("finding %q", finding)
	}
	a, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Decisions) != 2 || len(a.DecisionsIOS) != 1 || a.Note != orig.Note ||
		a.Digest != fmt.Sprintf("%016x", orig.Digest) || a.DecisionCount != 32 {
		t.Fatalf("fallback artifact %+v does not keep the original recording", a)
	}
}

// TestArtifactPath pins the one artifact namer for both kinds.
func TestArtifactPath(t *testing.T) {
	cases := []struct {
		a    Artifact
		want string
	}{
		{Artifact{Kind: KindSoak, Schedule: "daemon-crash", Cell: &CellRef{Bench: "mach"}}, "cider-replay-daemon-crash-mach.json"},
		{Artifact{Kind: KindSoak, Schedule: "eintr-storm", ExploreSeed: 5,
			Cell: &CellRef{Bench: "lmbench", Config: "cider-ios", Test: "pipe latency (+fork)"}},
			"cider-replay-eintr-storm-lmbench-cider-ios-pipe-latency-fork-x5.json"},
		{Artifact{Kind: KindDiffcheck, Seed: 0x2a}, "cider-replay-diffcheck-seed-2a.json"},
		{Artifact{Kind: KindDiffcheck, Seed: 200, ExploreSeed: 3}, "cider-replay-diffcheck-seed-c8-x3.json"},
	}
	for _, c := range cases {
		if got := c.a.Path("/d"); got != filepath.Join("/d", c.want) {
			t.Errorf("Path = %q, want %q", got, c.want)
		}
	}
}

// TestVerifyCountsBothLogs pins the replay report: a diffcheck artifact's
// non-canonical count covers both persona logs, and digest or decision
// count mismatches fail.
func TestVerifyCountsBothLogs(t *testing.T) {
	a := &Artifact{Version: ArtifactVersion, Kind: KindDiffcheck, Seed: 0x2a,
		Decisions:     []Choice{{Pos: 1, Index: 1}},
		DecisionsIOS:  []Choice{{Pos: 2, Index: 1}, {Pos: 5, Index: 2}},
		DecisionCount: 12}
	a.SetDigest(0xabc)
	var b strings.Builder
	if err := a.Verify(&b, 0xabc, 12, []string{"f1"}); err != nil {
		t.Fatal(err)
	}
	want := "== replay: diffcheck seed 0x2a ==\n" +
		"  decisions: 12 recorded, 12 replayed (3 non-canonical)\n" +
		"  finding: f1\n" +
		"  digest: 0000000000000abc == recorded (bit-identical)\n"
	if b.String() != want {
		t.Fatalf("report\n%s\nwant\n%s", b.String(), want)
	}
	if err := a.Verify(io.Discard, 0xabd, 12, nil); err == nil {
		t.Error("digest mismatch accepted")
	}
	if err := a.Verify(io.Discard, 0xabc, 13, nil); err == nil {
		t.Error("decision count mismatch accepted")
	}
}

// TestRecentDecisionsRing pins the deadlock-report feed: bounded,
// oldest-first, non-canonical choices marked.
func TestRecentDecisionsRing(t *testing.T) {
	r := NewRecorder(deciderFunc(func(n int) int { return 1 }))
	for i := 0; i < RecentLimit+5; i++ {
		r.Decide(sim.DecisionWake, "waitq:port", 2, time.Duration(i))
	}
	lines := r.RecentDecisions()
	if len(lines) != RecentLimit {
		t.Fatalf("ring returned %d lines, want %d", len(lines), RecentLimit)
	}
	if !strings.HasPrefix(lines[0], "#5 ") {
		t.Fatalf("oldest line = %q, want #5 first", lines[0])
	}
	if !strings.Contains(lines[0], "[non-canonical]") {
		t.Fatalf("non-canonical choice unmarked: %q", lines[0])
	}
}
