package soak

import (
	"testing"

	"repro/internal/replay"
)

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
