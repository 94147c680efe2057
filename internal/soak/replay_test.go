package soak

import (
	"testing"

	"repro/internal/replay"
)

// TestRecordReplayBitIdentical is the tentpole criterion: for every
// schedule in the soak matrix, every quick-battery cell records to an
// artifact that — after a full encode/decode round trip through the
// file format — replays to the exact same digest, decision count, and
// findings in isolation.
func TestRecordReplayBitIdentical(t *testing.T) {
	dir := t.TempDir()
	for _, s := range Schedules() {
		refs := CellRefs(QuickTests(), false)
		for i, ref := range refs {
			a, rec := RecordCell(s, ref, nil, 0)
			path := a.Path(dir)
			if err := a.WriteFile(path); err != nil {
				t.Fatal(err)
			}
			b, err := replay.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := ReplayCell(b)
			if err != nil {
				t.Fatalf("%s cell %s: %v", s.Name, ref, err)
			}
			if rep.Digest != rec.Digest {
				t.Errorf("%s cell %d %s: replayed digest %016x, recorded %016x",
					s.Name, i, ref, rep.Digest, rec.Digest)
			}
			if rep.DecisionCount != rec.DecisionCount {
				t.Errorf("%s cell %s: replayed %d decisions, recorded %d",
					s.Name, ref, rep.DecisionCount, rec.DecisionCount)
			}
			if len(rep.Findings) != len(rec.Findings) {
				t.Errorf("%s cell %s: replayed findings %v, recorded %v",
					s.Name, ref, rep.Findings, rec.Findings)
			}
		}
	}
}

// TestRecordingDoesNotChangeDigest pins the canonical-equivalence
// property recording-by-default rests on: every cell run under a
// canonical Recorder produces the same digest and latency part as the
// same cell run with no Decider at all. The decision-heavy daemon-crash
// schedule is the interesting case; clean is the control.
func TestRecordingDoesNotChangeDigest(t *testing.T) {
	for _, name := range []string{"clean", "daemon-crash"} {
		s, ok := ScheduleByName(name)
		if !ok {
			t.Fatalf("schedule %s missing", name)
		}
		for _, ref := range CellRefs(QuickTests(), false) {
			recorded := recordCell(s, ref, nil)
			bare := runCellRef(s, ref, nil)
			if recorded.digest != bare.digest {
				t.Errorf("%s cell %s: recorded digest %016x != unrecorded %016x",
					name, ref, recorded.digest, bare.digest)
			}
			if recorded.latPart != bare.latPart {
				t.Errorf("%s cell %s: recorded latency part %016x != unrecorded %016x",
					name, ref, recorded.latPart, bare.latPart)
			}
			if recorded.decCount == 0 && ref.Bench == "mach" && name == "daemon-crash" {
				t.Errorf("%s cell %s: recorder consulted no decisions", name, ref)
			}
		}
	}
}

// TestExploreDeterministic pins the explorer-determinism criterion:
// the same (schedule, rounds) exploration yields the same digest,
// decision totals, and findings on every run — and at any jobs level.
func TestExploreDeterministic(t *testing.T) {
	s, _ := ScheduleByName("daemon-crash")
	opts := Options{Tests: QuickTests(), ArtifactDir: t.TempDir()}
	a := Explore(s, opts, 2)
	b := Explore(s, opts, 2)
	opts.Jobs = 4
	c := Explore(s, opts, 2)
	for _, r := range []*ExploreResult{b, c} {
		if r.Digest != a.Digest {
			t.Errorf("explore digest diverged: %016x vs %016x", r.Digest, a.Digest)
		}
		if r.Decisions != a.Decisions || r.Perturbed != a.Perturbed || r.CellRuns != a.CellRuns {
			t.Errorf("explore totals diverged: %+v vs %+v", r, a)
		}
		if len(r.Findings) != len(a.Findings) {
			t.Errorf("explore findings diverged: %v vs %v", r.Findings, a.Findings)
		}
	}
	if a.Decisions == 0 || a.Perturbed == 0 {
		t.Errorf("explorer consulted %d decisions, perturbed %d — not exploring",
			a.Decisions, a.Perturbed)
	}
}

// TestExploredRunReplaysBitIdentical closes the loop on perturbed
// schedules: a cell recorded under an Explorer replays bit-identically
// from its artifact, non-canonical choices and all.
func TestExploredRunReplaysBitIdentical(t *testing.T) {
	s, _ := ScheduleByName("daemon-crash")
	ref := replay.CellRef{Bench: "mach"}
	a, rec := RecordCell(s, ref, &replay.Explorer{Seed: 5}, 5)
	if len(a.Decisions) == 0 {
		t.Fatal("explored mach cell took no non-canonical choices; perturbation is dead")
	}
	data, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := replay.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayCell(b)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Digest != rec.Digest {
		t.Fatalf("explored replay digest %016x, recorded %016x", rep.Digest, rec.Digest)
	}
}

// TestCheckedInArtifactReplays replays the perturbed-schedule fixture
// checked into testdata: the daemon-crash mach cell under explore seed
// 5, a schedule with ~50 non-canonical wake/next/preempt choices the
// canonical run never takes. The soak invariants (no deadlock, no
// leak, supervision intact) must keep holding on this schedule as the
// kernel evolves — if this test starts reporting findings, an ordering
// bug regressed, and the fixture is its one-command reproducer. The
// digest is deliberately NOT asserted: it legitimately shifts with
// behavior changes; the invariants may not.
func TestCheckedInArtifactReplays(t *testing.T) {
	a, err := replay.Load("testdata/explored-daemon-crash-mach-x5.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Decisions) == 0 {
		t.Fatal("fixture has no non-canonical choices; it no longer perturbs anything")
	}
	rep, err := ReplayCell(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) > 0 {
		t.Fatalf("perturbed schedule regressed:\n%s", rep.Findings)
	}
	if rep.DecisionCount == 0 {
		t.Fatal("replay consulted no decisions; recording is dead")
	}
}

// TestReplayCellValidation pins artifact validation.
func TestReplayCellValidation(t *testing.T) {
	if _, err := ReplayCell(&replay.Artifact{Version: replay.ArtifactVersion, Kind: replay.KindDiffcheck}); err == nil {
		t.Error("diffcheck artifact accepted by soak replay")
	}
	if _, err := ReplayCell(&replay.Artifact{Version: replay.ArtifactVersion, Kind: replay.KindSoak}); err == nil {
		t.Error("artifact without cell/plan accepted")
	}
}
