// Package diffcheck is the differential persona oracle: it generates
// seeded programs over the syscall/signal/Mach surface both personas
// share, runs each program twice — once as an Android-persona process
// against Bionic, once as an iOS-persona process against libSystem — in
// otherwise identical cells, and diffs the canonicalized results.
//
// The premise is Cider's own correctness claim: a persona only changes
// *how* a thread talks to the kernel (ABI numbers, errno numbering,
// signal numbering, TLS layout, syscall cost), never *what* the kernel
// does. After normalizing away the deliberate differences — numbering
// translated back to canonical, persona-hop syscalls dropped, virtual
// timestamps excluded — the two runs must be identical: same per-op
// results, same per-process event streams, same counters. Any residual
// difference is either a bug (fix it, with a regression test) or a
// paper-mandated deviation (allowlist it, with a citation); the
// allowlist policy lives in DESIGN.md.
//
// This oracle located four real divergences in this codebase, each now
// fixed with a regression test: the XNU table missing dup, XNU open
// forwarding untranslated O_CREAT flag bits, EDEADLK/EAGAIN crossing on
// the BSD/Linux errno border, and a non-bijective signal translation
// table that collided SIGTSTP with SIGCHLD for iOS receivers.
package diffcheck

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/replay"
	"repro/internal/runner"
)

// Options configures a diffcheck run.
type Options struct {
	// Seeds is the number of generated programs (seeds 1..Seeds).
	Seeds int
	// Jobs is host parallelism; <= 0 means GOMAXPROCS.
	Jobs int
	// Minimize delta-debugs each residual divergence.
	Minimize bool
	// ArtifactDir is where replay artifacts for diverging seeds are
	// written; empty means the OS temp dir.
	ArtifactDir string
}

// Report is a run's deterministic summary: identical for the same
// Options regardless of Jobs.
type Report struct {
	// Seeds echoes Options.Seeds.
	Seeds int
	// Divergences is the residual (unallowlisted) set in seed order.
	Divergences []Divergence
	// AllowHits counts allowlist matches by entry ID.
	AllowHits map[string]int
}

type seedOutcome struct {
	divs []Divergence
	hits map[string]int
}

// Minimization budgets: two-cell reruns per minimized program, and per
// choice log of an explored pair.
const (
	programMinimizeBudget = 400
	pairMinimizeBudget    = 64
)

// Run executes the oracle over seeds 1..o.Seeds, fanning seeds out over
// the host-parallel runner. Each seed is a closed experiment (generate,
// run both cells under canonical Recorders, diff, filter, optionally
// minimize), so results merge in seed order and the report is
// independent of Jobs. The canonical schedule's choice log is empty, so
// recording cannot change results.
func Run(o Options) (*Report, error) {
	allow := DefaultAllowlist()
	outcomes, err := runner.Map(o.Seeds, o.Jobs, func(i int) (seedOutcome, error) {
		seed := uint64(i + 1)
		p := Generate(seed)
		plan := PlanFor(seed)
		recA, recI := replay.NewRecorder(nil), replay.NewRecorder(nil)
		pr := runPair(seed, p, plan, recA, recI)
		divs, hits := Filter(pr.divs, allow)
		if len(divs) > 0 {
			a := buildArtifact(seed, 0, recA.Choices(), recI.Choices(),
				recA.Count()+recI.Count(), pr.digest, divs[0].Sig)
			if _, path := a.Emit(o.ArtifactDir, fmt.Sprintf("seed %#x", seed), ""); path != "" {
				for j := range divs {
					divs[j].Artifact = path
				}
			}
		}
		for j := range divs {
			divs[j].Program = p.Text()
			if o.Minimize {
				divs[j].Minimized = Minimize(p, plan, divs[j], allow, programMinimizeBudget).Text()
			}
		}
		return seedOutcome{divs: divs, hits: hits}, nil
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{Seeds: o.Seeds, AllowHits: map[string]int{}}
	for _, oc := range outcomes {
		rep.Divergences = append(rep.Divergences, oc.divs...)
		for id, n := range oc.hits {
			rep.AllowHits[id] += n
		}
	}
	return rep, nil
}

// Text renders the report deterministically.
func (r *Report) Text() string {
	var b strings.Builder
	total := 0
	ids := make([]string, 0, len(r.AllowHits))
	for id, n := range r.AllowHits {
		ids = append(ids, id)
		total += n
	}
	sort.Strings(ids)
	fmt.Fprintf(&b, "diffcheck: seeds=%d divergences=%d allowlisted=%d\n",
		r.Seeds, len(r.Divergences), total)
	for _, id := range ids {
		fmt.Fprintf(&b, "  allow %s: %d hits\n", id, r.AllowHits[id])
	}
	for _, d := range r.Divergences {
		fmt.Fprintf(&b, "DIVERGENCE %s\n", d)
	}
	return b.String()
}

// SuggestAllowlist renders Go literals for the residual divergences'
// signatures — the starting point --update-allowlist prints. Each
// suggestion still needs a human-written Why citation before it may be
// added to DefaultAllowlist; the policy intentionally cannot be
// automated.
func (r *Report) SuggestAllowlist() string {
	seen := map[string]bool{}
	var b strings.Builder
	for _, d := range r.Divergences {
		if seen[d.Sig] {
			continue
		}
		seen[d.Sig] = true
		fmt.Fprintf(&b, "{\n\tID:    %q,\n\tMatch: %q,\n\tWhy:   \"TODO: cite the paper section that mandates this deviation, or fix it\",\n},\n",
			"todo-"+d.Class, d.Sig)
	}
	return b.String()
}
