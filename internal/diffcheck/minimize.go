package diffcheck

import (
	"repro/internal/fault"
	"repro/internal/replay"
)

// Minimize greedily shrinks a diverging program while the divergence
// keeps reproducing with the same Class and Sig under the given fault
// plan. Generated programs are closed under subsequence (empty fd slots
// read as -1), so dropping any op still leaves a runnable program.
// budget caps the number of two-cell reruns of replay.Minimize, which
// sweeps from the back so ops after the divergence point disappear first.
func Minimize(p *Program, plan fault.Plan, target Divergence, allow []AllowEntry, budget int) *Program {
	ops := replay.Minimize(p.Ops, budget, func(ops []Op) bool {
		divs, _ := Filter(CompareProgram(p.Seed, &Program{Seed: p.Seed, Ops: ops}, plan), allow)
		for _, d := range divs {
			if d.Class == target.Class && d.Sig == target.Sig {
				return true
			}
		}
		return false
	})
	return &Program{Seed: p.Seed, Ops: ops}
}
