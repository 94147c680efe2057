package replay

import (
	"fmt"

	"repro/internal/sim"
)

// Minimize is the harnesses' one delta-debug minimizer: it shrinks a
// failing input (a diffcheck program's ops, a schedule's choice log) to
// a shorter one that still fails. Each sweep runs back to front, dropping
// one element at a time and keeping the drop if reproduces still reports
// the failure, so elements after the failure point disappear first; it
// repeats until a sweep drops nothing or budget trials have run.
//
// Trials are allowed to fail for unrelated reasons — a choice log that
// lost an element diverges from the recording, and the Replayer clamps
// out-of-range choices — and simply return false.
//
// The result is a copy; items is not mutated.
func Minimize[T any](items []T, budget int, reproduces func([]T) bool) []T {
	cur := append([]T(nil), items...)
	for shrunk := true; shrunk && budget > 0; {
		shrunk = false
		for i := len(cur) - 1; i >= 0 && budget > 0; i-- {
			trial := make([]T, 0, len(cur)-1)
			trial = append(trial, cur[:i]...)
			trial = append(trial, cur[i+1:]...)
			budget--
			if reproduces(trial) {
				cur = trial
				shrunk = true
			}
		}
	}
	return cur
}

// Outcome is what exploration needs from one execution of a cell.
type Outcome struct {
	// Class buckets the failure ("" = the run passed). Minimization keeps
	// a trial only if it fails with the original run's class.
	Class string
	// Note is the finding the artifact carries.
	Note string
	// Digest fingerprints the run.
	Digest uint64
}

// Failure is an explored cell run that broke an invariant, together with
// what it takes to re-execute the cell. soak and diffcheck explore their
// cells differently, but hand every failure to Reproduce.
type Failure struct {
	// Artifact identifies the cell: everything but the choice logs,
	// decision count, digest and note, which Reproduce fills in.
	Artifact Artifact
	// Logs are the run's recorded choice logs, one per simulator in the
	// cell: one for a soak cell, android then iOS for a diffcheck pair.
	Logs [][]Choice
	// Count is the run's decision count, all simulators together.
	Count uint64
	// Outcome is the failing run's outcome.
	Outcome Outcome
	// Run re-executes the cell with one scheduler decider per log.
	Run func(decs []sim.Decider) Outcome
}

// Reproduce turns a failure into a one-command repro. It minimizes each
// choice log in turn (budget trials per log, the others held at their
// current state), re-runs the cell under the minimized logs, and keeps
// that run if it still fails with the original class — else, defensively,
// the original recording. It writes the kept run's artifact into dir and
// returns the finding line naming it and the artifact path ("" if the
// write failed).
func (f *Failure) Reproduce(dir string, budget int, label, detail string) (finding, path string) {
	class := f.Outcome.Class
	min := append([][]Choice(nil), f.Logs...)
	for i := range min {
		min[i] = Minimize(min[i], budget, func(trial []Choice) bool {
			logs := append([][]Choice(nil), min...)
			logs[i] = trial
			decs := make([]sim.Decider, len(logs))
			for j, l := range logs {
				decs[j] = NewReplayer(l)
			}
			return f.Run(decs).Class == class
		})
	}

	kept, count, out := f.Logs, f.Count, f.Outcome
	recs := make([]*Recorder, len(min))
	decs := make([]sim.Decider, len(min))
	for i, l := range min {
		recs[i] = NewRecorder(NewReplayer(l))
		decs[i] = recs[i]
	}
	if o := f.Run(decs); o.Class == class {
		kept, count, out = make([][]Choice, len(recs)), 0, o
		for i, r := range recs {
			kept[i] = r.Choices()
			count += r.Count()
		}
	}

	a := f.Artifact
	a.Decisions = kept[0]
	if len(kept) > 1 {
		a.DecisionsIOS = kept[1]
	}
	a.DecisionCount = count
	a.Note = out.Note
	a.SetDigest(out.Digest)
	return a.Emit(dir, label, fmt.Sprintf("%s, %d/%d non-canonical choices after minimization",
		detail, total(kept), total(f.Logs)))
}

// total counts the choices across logs.
func total(logs [][]Choice) int {
	n := 0
	for _, l := range logs {
		n += len(l)
	}
	return n
}
