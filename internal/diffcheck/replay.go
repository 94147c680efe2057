package diffcheck

import (
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/replay"
	"repro/internal/runner"
	"repro/internal/sim"
)

// foldCell folds everything Compare looks at — the executor log, the
// normalized per-process event streams, the counters, and the cell
// health signals — so equal pair digests imply equal comparisons.
func foldCell(d *fault.Digest, r *CellResult) {
	d.Str(r.Err)
	d.Str(r.LeakErr)
	d.U64(r.Dropped)
	d.U64(uint64(len(r.Log)))
	for _, line := range r.Log {
		d.Str(line)
	}
	for _, p := range r.Procs {
		d.Str(p)
		for _, line := range r.Events[p] {
			d.Str(line)
		}
	}
	names := make([]string, 0, len(r.Counters))
	for n := range r.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d.Str(n)
		d.U64(r.Counters[n])
	}
}

// pairRun is one seed's two persona cells executed under explicit
// scheduler policies, with the pre-allowlist divergences and the pair
// digest replay asserts against.
type pairRun struct {
	android, ios *CellResult
	divs         []Divergence
	digest       uint64
}

// runPair executes the program under both personas with the given
// deciders (android cell first, then iOS — the personas never share a
// simulator, so each side has its own decision stream) and diffs.
func runPair(seed uint64, p *Program, plan fault.Plan, decA, decI sim.Decider) pairRun {
	a := RunCellDecided(p, false, plan, decA)
	i := RunCellDecided(p, true, plan, decI)
	pr := pairRun{android: a, ios: i, divs: Compare(seed, a, i)}
	d := fault.NewDigest()
	d.U64(seed)
	foldCell(d, a)
	foldCell(d, i)
	pr.digest = d.Sum()
	return pr
}

// buildArtifact assembles a diffcheck replay artifact: the seed
// regenerates the program and fault plan, the two choice logs pin both
// cells' schedules.
func buildArtifact(seed, exploreSeed uint64, chA, chI []replay.Choice, decCount, digest uint64, note string) *replay.Artifact {
	a := &replay.Artifact{
		Version:       replay.ArtifactVersion,
		Kind:          replay.KindDiffcheck,
		Seed:          seed,
		ExploreSeed:   exploreSeed,
		Decisions:     chA,
		DecisionsIOS:  chI,
		DecisionCount: decCount,
		Note:          note,
	}
	a.SetDigest(digest)
	return a
}

// ReplayReport is the outcome of re-executing a diffcheck artifact.
type ReplayReport struct {
	// Digest is the replayed pair digest; it must equal the artifact's.
	Digest uint64
	// DecisionCount totals both cells' consulted decision points.
	DecisionCount uint64
	// Findings are the residual divergences the replayed pair exhibits.
	Findings []string
}

// ReplayArtifact re-executes a diffcheck artifact bit-identically: the
// program and fault plan are regenerated from the seed, and each
// persona cell replays its recorded choice log.
func ReplayArtifact(a *replay.Artifact) (*ReplayReport, error) {
	if a.Kind != replay.KindDiffcheck {
		return nil, fmt.Errorf("diffcheck: artifact kind %q is not %q", a.Kind, replay.KindDiffcheck)
	}
	if a.Seed == 0 {
		return nil, fmt.Errorf("diffcheck: artifact has no program seed")
	}
	p := Generate(a.Seed)
	plan := PlanFor(a.Seed)
	recA := replay.NewRecorder(replay.NewReplayer(a.Decisions))
	recI := replay.NewRecorder(replay.NewReplayer(a.DecisionsIOS))
	pr := runPair(a.Seed, p, plan, recA, recI)
	divs, _ := Filter(pr.divs, DefaultAllowlist())
	rep := &ReplayReport{Digest: pr.digest, DecisionCount: recA.Count() + recI.Count()}
	for _, d := range divs {
		rep.Findings = append(rep.Findings, d.String())
	}
	return rep, nil
}

// ExploreReport summarizes a diffcheck schedule-exploration run. It is
// deterministic for fixed (Options.Seeds, rounds) regardless of Jobs.
type ExploreReport struct {
	// Seeds and Rounds echo the inputs.
	Seeds, Rounds int
	// PairRuns counts explored two-cell executions.
	PairRuns int
	// Decisions totals the scheduler decision points consulted.
	Decisions uint64
	// Perturbed totals the non-canonical choices taken.
	Perturbed uint64
	// Findings are residual divergences explored schedules exposed, each
	// carrying its minimized replay artifact path.
	Findings []string
	// Artifacts lists the minimized artifact files written.
	Artifacts []string
	// Digest fingerprints the full exploration (per-seed, per-round pair
	// digests) — the explorer-determinism criterion.
	Digest uint64
}

// Err folds findings into an error (nil when exploration ran clean).
func (r *ExploreReport) Err() error {
	if len(r.Findings) == 0 {
		return nil
	}
	return fmt.Errorf("diffcheck: explore: %d finding(s)", len(r.Findings))
}

// exOutcome is one seed's exploration results, merged in seed order.
type exOutcome struct {
	runs                 int
	decisions, perturbed uint64
	digests              []uint64
	findings, artifacts  []string
}

// Explore runs every seed's persona pair under `rounds` seeded
// perturbations of both cells' scheduler decisions (DPOR-lite). The
// persona-equivalence invariant must hold under every legal schedule —
// wake order and preemption choices are persona-neutral kernel
// internals — so any residual divergence an explored schedule exposes
// is a real ordering bug. Each is minimized via delta-debug over the
// two choice logs and written out as a one-command replay artifact.
func Explore(o Options, rounds int) (*ExploreReport, error) {
	allow := DefaultAllowlist()
	outcomes, err := runner.Map(o.Seeds, o.Jobs, func(i int) (exOutcome, error) {
		seed := uint64(i + 1)
		p := Generate(seed)
		plan := PlanFor(seed)
		run := func(decs []sim.Decider) replay.Outcome {
			pr := runPair(seed, p, plan, decs[0], decs[1])
			out := replay.Outcome{Digest: pr.digest}
			if divs, _ := Filter(pr.divs, allow); len(divs) > 0 {
				out.Class, out.Note = divs[0].Sig, divs[0].Sig
			}
			return out
		}
		var oc exOutcome
		for round := 1; round <= rounds; round++ {
			// Distinct explorer seeds per cell: the two simulations are
			// independent, so their perturbations should be too.
			recA := replay.NewRecorder(&replay.Explorer{Seed: uint64(round)*2 - 1})
			recI := replay.NewRecorder(&replay.Explorer{Seed: uint64(round) * 2})
			out := run([]sim.Decider{recA, recI})
			oc.runs++
			oc.decisions += recA.Count() + recI.Count()
			oc.perturbed += uint64(len(recA.Choices()) + len(recI.Choices()))
			oc.digests = append(oc.digests, out.Digest)
			if out.Class == "" {
				continue
			}
			f := replay.Failure{
				Artifact: *buildArtifact(seed, uint64(round), nil, nil, 0, 0, ""),
				Logs:     [][]replay.Choice{recA.Choices(), recI.Choices()},
				Count:    recA.Count() + recI.Count(),
				Outcome:  out,
				Run:      run,
			}
			finding, path := f.Reproduce(o.ArtifactDir, pairMinimizeBudget,
				fmt.Sprintf("seed %#x", seed), fmt.Sprintf("explore round %d, sig %q", round, out.Class))
			oc.findings = append(oc.findings, finding)
			if path != "" {
				oc.artifacts = append(oc.artifacts, path)
			}
		}
		return oc, nil
	})
	if err != nil {
		return nil, err
	}
	rep := &ExploreReport{Seeds: o.Seeds, Rounds: rounds}
	d := fault.NewDigest()
	d.U64(uint64(o.Seeds))
	d.U64(uint64(rounds))
	for i, oc := range outcomes {
		rep.PairRuns += oc.runs
		rep.Decisions += oc.decisions
		rep.Perturbed += oc.perturbed
		rep.Findings = append(rep.Findings, oc.findings...)
		rep.Artifacts = append(rep.Artifacts, oc.artifacts...)
		d.U64(uint64(i + 1))
		for _, dg := range oc.digests {
			d.U64(dg)
		}
	}
	rep.Digest = d.Sum()
	return rep, nil
}
