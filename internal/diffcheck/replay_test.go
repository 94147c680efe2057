package diffcheck

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/replay"
)

// TestRecordReplayFiftySeeds is the tentpole criterion on the persona
// oracle: fifty seeds' pair runs each record to an artifact that —
// after a full encode/decode round trip through the file format —
// replays to the exact same pair digest and decision count.
func TestRecordReplayFiftySeeds(t *testing.T) {
	dir := t.TempDir()
	for seed := uint64(1); seed <= 50; seed++ {
		p := Generate(seed)
		plan := PlanFor(seed)
		recA, recI := replay.NewRecorder(nil), replay.NewRecorder(nil)
		pr := runPair(seed, p, plan, recA, recI)
		a := buildArtifact(seed, 0, recA.Choices(), recI.Choices(),
			recA.Count()+recI.Count(), pr.digest, "")
		path := filepath.Join(dir, "art.json")
		if err := a.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		b, err := replay.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := ReplayArtifact(b)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Digest != pr.digest {
			t.Errorf("seed %d: replayed digest %016x, recorded %016x", seed, rep.Digest, pr.digest)
		}
		if rep.DecisionCount != recA.Count()+recI.Count() {
			t.Errorf("seed %d: replayed %d decisions, recorded %d",
				seed, rep.DecisionCount, recA.Count()+recI.Count())
		}
	}
}

// TestPairDigestJobsInvariant pins exploration (and with it the pair
// digest) to host parallelism: jobs=1 and jobs=4 must agree, and two
// identical runs must agree (explorer determinism).
func TestPairDigestJobsInvariant(t *testing.T) {
	opts := Options{Seeds: 24, Jobs: 1, ArtifactDir: t.TempDir()}
	a, err := Explore(opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Explore(opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	opts.Jobs = 4
	c, err := Explore(opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*ExploreReport{b, c} {
		if r.Digest != a.Digest {
			t.Errorf("explore digest diverged: %016x vs %016x", r.Digest, a.Digest)
		}
		if r.Decisions != a.Decisions || r.Perturbed != a.Perturbed || r.PairRuns != a.PairRuns {
			t.Errorf("explore totals diverged: %+v vs %+v", r, a)
		}
		if len(r.Findings) != len(a.Findings) {
			t.Errorf("explore findings diverged: %v vs %v", r.Findings, a.Findings)
		}
	}
}

// TestRecordingDoesNotChangeReport pins canonical equivalence on the
// oracle: a pair run under canonical Recorders (what Run does) and the
// same pair run with no Decider produce the same pair digest — which
// folds everything Compare looks at — and the same divergences.
func TestRecordingDoesNotChangeReport(t *testing.T) {
	for seed := uint64(1); seed <= 16; seed++ {
		p := Generate(seed)
		plan := PlanFor(seed)
		recorded := runPair(seed, p, plan, replay.NewRecorder(nil), replay.NewRecorder(nil))
		bare := runPair(seed, p, plan, nil, nil)
		if recorded.digest != bare.digest {
			t.Errorf("seed %d: recorded pair digest %016x != unrecorded %016x",
				seed, recorded.digest, bare.digest)
		}
		if fmt.Sprint(recorded.divs) != fmt.Sprint(bare.divs) {
			t.Errorf("seed %d: recording changed the divergences:\n%v\nvs\n%v",
				seed, recorded.divs, bare.divs)
		}
	}
}

// TestReplayArtifactValidation pins artifact validation.
func TestReplayArtifactValidation(t *testing.T) {
	if _, err := ReplayArtifact(&replay.Artifact{Version: replay.ArtifactVersion, Kind: replay.KindSoak}); err == nil {
		t.Error("soak artifact accepted by diffcheck replay")
	}
	if _, err := ReplayArtifact(&replay.Artifact{Version: replay.ArtifactVersion, Kind: replay.KindDiffcheck}); err == nil {
		t.Error("artifact without seed accepted")
	}
}
