// Harness golden values: the outputs every determinism harness is built
// on, pinned across commits. The harness packages' own tests compare two
// runs of the same build, which cannot notice a refactor that shifts a
// PRNG stream, a digest encoding or an explore loop consistently; these
// constants can. A change here is a change to every recorded digest,
// generated program and replay artifact, so it must be deliberate.
package repro_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/diffcheck"
	"repro/internal/fault"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/soak"
)

func shortHash(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// TestGoldenDiffcheckGenerator pins the program generator and the
// per-seed fault plan.
func TestGoldenDiffcheckGenerator(t *testing.T) {
	want := map[uint64]string{
		1:   "bea1483aa2b9338a 15a2af3cdabcf5b8",
		2:   "94cfeb3a344b0dfc 714c49c3c4e49a89",
		3:   "e153103616c22f19 15c4370de264a760",
		7:   "f18102e24d12857b d85a40cff22a398f",
		42:  "fc276ea324e3110c f09ca2c44c20929f",
		200: "6aed9e5a5e24fe12 2b05a17d8aa09d6c",
	}
	for seed, w := range want {
		plan, err := json.Marshal(diffcheck.PlanFor(seed))
		if err != nil {
			t.Fatal(err)
		}
		got := shortHash(diffcheck.Generate(seed).Text()) + " " + shortHash(string(plan))
		if got != w {
			t.Errorf("seed %d: program/plan %s, want %s", seed, got, w)
		}
	}
}

// TestGoldenInjectorEvery pins the fault layer's pseudo-random
// one-in-Every decision sequence.
func TestGoldenInjectorEvery(t *testing.T) {
	in := fault.NewInjector(fault.Plan{Name: "golden", Seed: 0x5eed, Rules: []fault.Rule{
		{Op: fault.OpSyscall, Match: "*/read", Every: 3},
		{Op: fault.OpSyscall, Every: 5},
	}})
	keys := []string{"android/read", "ios/read", "android/write"}
	var b strings.Builder
	for i := 0; i < 96; i++ {
		if out, ok := in.Syscall(0, keys[i%len(keys)]); ok {
			b.WriteByte(byte('0' + out.Rule))
		} else {
			b.WriteByte('.')
		}
	}
	const want = "0..0.....11.0.1......0..0...0.0..10.0......1.01.11.0..0......0....0..01....0..10100....0......01"
	if got := b.String(); got != want {
		t.Errorf("injector decisions\n got %s\nwant %s", got, want)
	}
}

// TestGoldenExplorerStream pins the schedule explorer's choice stream.
func TestGoldenExplorerStream(t *testing.T) {
	want := map[uint64]string{
		1: "344042300233303224034113114342404012410224304313",
		2: "002402223100121304010113010244223104244421443130",
		7: "012041320212403223404410212103020424024112412104",
	}
	for seed, w := range want {
		e := &replay.Explorer{Seed: seed}
		var b strings.Builder
		for i := 0; i < 48; i++ {
			b.WriteByte(byte('0' + e.Decide(sim.DecisionKind(i%int(sim.NumDecisionKinds)), "w", 5, 0)))
		}
		if got := b.String(); got != w {
			t.Errorf("explorer seed %d\n got %s\nwant %s", seed, got, w)
		}
	}
}

// TestGoldenSoakDigests pins one recorded cell digest and a small
// schedule exploration.
func TestGoldenSoakDigests(t *testing.T) {
	s, ok := soak.ScheduleByName("daemon-crash")
	if !ok {
		t.Fatal("daemon-crash schedule missing")
	}
	_, rep := soak.RecordCell(s, replay.CellRef{Bench: "mach"}, nil, 0)
	x := soak.Explore(s, soak.Options{Jobs: 2, Tests: soak.QuickTests()[:2], ArtifactDir: t.TempDir()}, 2)
	got := fmt.Sprintf("cell %016x/%d explore %016x runs=%d decisions=%d perturbed=%d findings=%d",
		rep.Digest, rep.DecisionCount, x.Digest, x.CellRuns, x.Decisions, x.Perturbed, len(x.Findings))
	const want = "cell 872ac8c1e88584a9/63 explore 110f3822efbaa52e runs=18 decisions=1440 perturbed=734 findings=0"
	if got != want {
		t.Errorf("soak\n got %s\nwant %s", got, want)
	}
}

// TestGoldenDiffcheckDigests pins an oracle report and a small persona
// pair exploration.
func TestGoldenDiffcheckDigests(t *testing.T) {
	dir := t.TempDir()
	r, err := diffcheck.Run(diffcheck.Options{Seeds: 8, Jobs: 2, ArtifactDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	x, err := diffcheck.Explore(diffcheck.Options{Seeds: 24, Jobs: 2, ArtifactDir: dir}, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("report %s explore %016x runs=%d decisions=%d perturbed=%d findings=%d",
		shortHash(r.Text()), x.Digest, x.PairRuns, x.Decisions, x.Perturbed, len(x.Findings))
	const want = "report 23dd7e65376fbedf explore 93f1d5a432ba552b runs=48 decisions=5 perturbed=4 findings=0"
	if got != want {
		t.Errorf("diffcheck\n got %s\nwant %s", got, want)
	}
}
