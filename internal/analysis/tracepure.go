package analysis

import "go/types"

// TracePure enforces the zero-cost-when-disabled guarantee of the trace
// layer: sink callbacks observe the simulation, they must never steer it.
// Any function reachable from a trace sink callback (SchedEvent, and the
// trace package's SyscallEnter/SyscallExit/Signal/Count) that calls back
// into the simulator — advancing time, waking or spawning procs, charging
// cost — would make enabling a trace change the schedule, breaking the
// bit-identical-replay property the Fig. 5/6 methodology depends on.
var TracePure = &Analyzer{
	Name: "tracepure",
	Doc: "functions reachable from trace sink callbacks must not call " +
		"Advance/Wake/Charge: enabling a trace must not perturb the schedule",
	Run: runTracePure,
}

// tracePureKey caches the whole-program reachable-from-sink set.
const tracePureKey = "tracepure.reachable"

// sinkRootNames identify sink entry points. SchedEvent is the sim.Sink
// interface method, so any concrete implementation anywhere is a root; the
// remaining names are extended sink callbacks and only count when declared
// in a package named "trace".
var sinkRootNames = map[string]bool{
	"SchedEvent": true, "SyscallEnter": true, "SyscallExit": true,
	"Signal": true, "Count": true,
}

// simReentry are the simulator entry points a sink callback must never
// reach: time accrual, scheduling, and syscall dispatch, on sim or kernel
// receivers.
var simReentry = map[string]bool{
	"Advance": true, "Wake": true, "WakeOne": true, "WakeAll": true,
	"Spawn": true, "Park": true, "Sleep": true, "Yield": true,
	"Wait": true, "WaitTimeout": true, "Exit": true,
	"Charge": true, "Syscall": true,
}

func isSinkRoot(fn *types.Func) bool {
	if !sinkRootNames[fn.Name()] || RecvPkgName(fn) == "" {
		return false
	}
	if fn.Name() == "SchedEvent" {
		return true
	}
	return fn.Pkg() != nil && fn.Pkg().Name() == "trace"
}

// isSimReentry reports whether fn is a simulator entry point (a banned
// callee inside sink-reachable code).
func isSimReentry(fn *types.Func) bool {
	if fn == nil || !simReentry[fn.Name()] {
		return false
	}
	switch RecvPkgName(fn) {
	case "sim", "kernel":
		return true
	}
	return false
}

// sinkReachable computes, once per program, the set of loaded functions
// reachable from any sink root through the call graph.
func sinkReachable(prog *Program) map[*FuncSource]bool {
	return prog.Fact(tracePureKey, func() any {
		reach := map[*FuncSource]bool{}
		var queue []*FuncSource
		for _, src := range prog.funcs {
			if isSinkRoot(src.Fn) {
				reach[src] = true
				queue = append(queue, src)
			}
		}
		for len(queue) > 0 {
			src := queue[0]
			queue = queue[1:]
			for _, c := range src.Calls {
				callee := prog.FuncBody(c.Callee)
				if callee != nil && callee.Decl.Body != nil && !reach[callee] {
					reach[callee] = true
					queue = append(queue, callee)
				}
			}
		}
		return reach
	}).(map[*FuncSource]bool)
}

func runTracePure(pass *Pass) error {
	reach := sinkReachable(pass.Prog)
	// Check only functions declared in this package, so each finding is
	// reported exactly once (in its home package's pass).
	for _, src := range pass.Prog.funcs {
		if src.Pkg != pass.Pkg || !reach[src] {
			continue
		}
		for _, c := range src.Calls {
			if isSimReentry(c.Callee) {
				pass.Reportf(c.Call.Pos(),
					"%s is reachable from a trace sink callback but re-enters the simulator via %s.%s: sinks must observe virtual time, never create it",
					src.Fn.Name(), RecvTypeName(c.Callee), c.Callee.Name())
			}
		}
	}
	return nil
}
