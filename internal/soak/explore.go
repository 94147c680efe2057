package soak

import (
	"fmt"
	"strings"

	"repro/internal/fault"
	"repro/internal/replay"
	"repro/internal/runner"
	"repro/internal/sim"
)

// ExploreResult summarizes a schedule-exploration run.
type ExploreResult struct {
	// Schedule names the plan that was explored.
	Schedule string
	// Rounds is how many perturbation seeds ran.
	Rounds int
	// CellRuns is the total number of explored cell executions.
	CellRuns int
	// Decisions is the total number of scheduler decision points
	// consulted across all explored runs.
	Decisions uint64
	// Perturbed is the total number of non-canonical choices taken.
	Perturbed uint64
	// Findings are the invariant violations explored schedules hit,
	// each followed by its minimized replay artifact line.
	Findings []string
	// Artifacts lists the minimized artifact files written, one per
	// failing cell run.
	Artifacts []string
	// Digest fingerprints the full exploration (per-round, per-cell
	// digests): the explorer-determinism criterion is equal digests for
	// equal (schedule, seeds, rounds).
	Digest uint64
}

// Err folds findings into an error (nil when exploration ran clean).
func (r *ExploreResult) Err() error {
	if len(r.Findings) == 0 {
		return nil
	}
	return fmt.Errorf("soak: explore %s: %d finding(s):\n  %s", r.Schedule, len(r.Findings), strings.Join(r.Findings, "\n  "))
}

// MinimizeBudget is the per-failure trial budget for schedule
// minimization (each trial re-executes one cell).
const MinimizeBudget = 96

// Explore runs the schedule's cells under `rounds` seeded perturbations
// of the scheduler's ambiguous decisions (DPOR-lite: every
// equal-virtual-time pick, wake order, and equal-clock preemption tie
// is re-decided pseudo-randomly per round). A correct kernel and
// workload must hold every soak invariant — no deadlocks, no leaks, no
// lost services, and on the clean schedule full completion — under
// every such schedule; any violation is minimized via delta-debug over
// the decision log and written out as a replay artifact.
//
// Exploration is deterministic: round r uses explore seed r, and the
// explorer's choices are a pure function of (seed, decision order), so
// the same (schedule, rounds) input reproduces the same schedule set,
// findings, and digest on every host.
func Explore(s Schedule, opts Options, rounds int) *ExploreResult {
	res := &ExploreResult{Schedule: s.Name, Rounds: rounds}
	refs := CellRefs(opts.Tests, opts.Full)
	d := fault.NewDigest()
	d.Str(s.Name)
	d.U64(s.Plan.Seed)
	for round := 1; round <= rounds; round++ {
		seed := uint64(round)
		outcomes, _ := runner.Map(len(refs), opts.Jobs, func(i int) (cellOutcome, error) {
			return recordCell(s, refs[i], &replay.Explorer{Seed: seed}), nil
		})
		d.U64(seed)
		for i := range outcomes {
			o := &outcomes[i]
			res.CellRuns++
			res.Decisions += o.decCount
			res.Perturbed += uint64(len(o.choices))
			d.U64(uint64(i))
			d.U64(o.digest)
			d.U64(uint64(len(o.choices)))
			if len(o.findings) == 0 {
				continue
			}
			res.Findings = append(res.Findings, o.findings...)
			ref := o.ref
			f := replay.Failure{
				Artifact: *artifactForOutcome(s, o, seed),
				Logs:     [][]replay.Choice{o.choices},
				Count:    o.decCount,
				Outcome:  o.outcome(),
				Run: func(decs []sim.Decider) replay.Outcome {
					t := runCellRef(s, ref, decs[0])
					return t.outcome()
				},
			}
			finding, path := f.Reproduce(opts.ArtifactDir, MinimizeBudget,
				"cell "+ref.String(), fmt.Sprintf("explore seed %d", seed))
			res.Findings = append(res.Findings, finding)
			if path != "" {
				res.Artifacts = append(res.Artifacts, path)
			}
		}
	}
	res.Digest = d.Sum()
	return res
}

// findingClass buckets findings into coarse failure classes so
// minimization tracks "same bug" rather than exact message equality
// (messages embed counts and clocks that legitimately shift as the
// schedule shrinks).
func findingClass(findings []string) string {
	for _, f := range findings {
		switch {
		case strings.Contains(f, "deadlock"):
			return "deadlock"
		case strings.Contains(f, "leak"):
			return "leak"
		case strings.Contains(f, "supervision lost"):
			return "supervision"
		case strings.Contains(f, "incomplete"):
			return "incomplete"
		}
	}
	if len(findings) > 0 {
		return "other"
	}
	return ""
}
