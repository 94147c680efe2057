package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder builds the static lock-acquisition graph over the simulated
// kernel layers and enforces two invariants on it:
//
//  1. The graph is acyclic. Lock identities are (receiver type, field)
//     pairs resolved from the receiver expression of LckMtx Lock/TryLock
//     calls — the granularity at which XNU orders its lck_mtx classes. An
//     edge A→B exists when B is acquired (directly, or anywhere inside a
//     callee, transitively) while A is held; a cycle means two threads
//     can acquire in opposite orders and deadlock.
//
//  2. No lock-held blocking. With the simulator's single-runnable-Proc
//     discipline, a Proc that parks (Park, Sleep, WaitQueue.Wait, a
//     channel operation) while holding a LckMtx can strand every
//     contended locker behind a waiter that only another locker could
//     wake. Lock contention itself is exempt: acquiring another LckMtx
//     while one is held is an order-graph edge (invariant 1), and the
//     may-block fixpoint deliberately does not propagate through LckMtx
//     methods.
//
// The walk is interprocedural and optimistic in the high-confidence
// direction: calls that cannot be resolved statically are assumed to
// neither block nor acquire, so every finding describes a concrete
// park-with-lock-held or ordering cycle the source actually spells out.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "the static lock-acquisition graph must be acyclic and no " +
		"blocking primitive (Park/Sleep/WaitQueue/channel) may be entered " +
		"with a LckMtx held",
	Run: runLockOrder,
}

// lockBlockSeed reports whether fn parks the calling Proc outright: the
// sim package's Park/Sleep and the WaitQueue wait entry points.
func lockBlockSeed(fn *types.Func) bool {
	switch fn.Name() {
	case "Park", "Sleep":
		return RecvPkgName(fn) == "sim" && RecvTypeName(fn) == "Proc"
	case "Wait", "WaitTimeout":
		return RecvTypeName(fn) == "WaitQueue"
	}
	return false
}

// isLckMtxMethod reports whether fn is a method on the LckMtx lock
// primitive (any package, so fixtures can model their own).
func isLckMtxMethod(fn *types.Func) bool {
	return fn != nil && RecvTypeName(fn) == "LckMtx"
}

const lockMayBlockKey = "lockorder.mayblock"

// lockMayBlock computes the set of loaded functions that may park,
// excluding propagation through LckMtx methods: contended lock
// acquisition is modeled by the order graph, not as a blocking call.
//
// Channel operations are deliberately NOT seeds: the sim scheduler's
// run-token handoff moves through channels on every Advance, and an
// Advance under a lock is ordinary contention, not a park. Raw channel
// ops are still flagged when they appear directly inside a held region
// (walkHeld below).
func lockMayBlock(prog *Program) map[*types.Func]bool {
	return prog.Fact(lockMayBlockKey, func() any {
		set := map[*types.Func]bool{}
		prog.solve(func(src *FuncSource) bool {
			if set[src.Fn] || isLckMtxMethod(src.Fn) {
				return false
			}
			for _, c := range src.Calls {
				if c.Callee != nil && !isLckMtxMethod(c.Callee) && (lockBlockSeed(c.Callee) || set[c.Callee]) {
					set[src.Fn] = true
					return true
				}
			}
			return false
		})
		return set
	}).(map[*types.Func]bool)
}

// lockID names a lock for the order graph: the (declaring type, field)
// pair for struct-field locks, or the variable object for plain ones.
func lockID(pkg *Package, recv ast.Expr) string {
	recv = Unparen(recv)
	switch x := recv.(type) {
	case *ast.SelectorExpr:
		// a.b.lock → identify by the static type owning the field.
		if sel, ok := pkg.Info.Selections[x]; ok {
			if v, ok := sel.Obj().(*types.Var); ok && v.IsField() {
				owner := sel.Recv()
				if ptr, ok := owner.(*types.Pointer); ok {
					owner = ptr.Elem()
				}
				if named, ok := owner.(*types.Named); ok {
					return named.Obj().Name() + "." + v.Name()
				}
				return v.Name()
			}
		}
		return x.Sel.Name
	case *ast.Ident:
		if obj := pkg.Info.Uses[x]; obj != nil {
			return obj.Name()
		}
		return x.Name
	}
	return "<lock>"
}

// lockAcquiresKey caches the per-function transitively-acquired lock sets.
const lockAcquiresKey = "lockorder.acquires"

// lockAcquires computes, for every loaded function, the set of lock IDs it
// may acquire (directly or via callees).
func lockAcquires(prog *Program) map[*types.Func]map[string]bool {
	return prog.Fact(lockAcquiresKey, func() any {
		sets := map[*types.Func]map[string]bool{}
		prog.solve(func(src *FuncSource) bool {
			cur := sets[src.Fn]
			if cur == nil {
				cur = map[string]bool{}
				sets[src.Fn] = cur
			}
			before := len(cur)
			for _, c := range src.Calls {
				if id, ok := lockAcquired(src.Pkg, c); ok {
					cur[id] = true
					continue
				}
				for id := range sets[c.Callee] {
					cur[id] = true
				}
			}
			return len(cur) != before
		})
		return sets
	}).(map[*types.Func]map[string]bool)
}

// lockAcquired returns the ID of the lock a call acquires when it is a
// LckMtx Lock or TryLock on a selector receiver.
func lockAcquired(pkg *Package, c CallSite) (string, bool) {
	if !isLckMtxMethod(c.Callee) || (c.Callee.Name() != "Lock" && c.Callee.Name() != "TryLock") {
		return "", false
	}
	sel, ok := Unparen(c.Call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	return lockID(pkg, sel.X), true
}

// lockFinding is one whole-program diagnostic, reported by the pass whose
// package owns the position.
type lockFinding struct {
	pkg *Package
	pos token.Pos
	msg string
}

// lockEdge is one acquisition-order edge with its witness site.
type lockEdge struct {
	from, to string
	pkg      *Package
	pos      token.Pos
}

const lockFindingsKey = "lockorder.findings"

// lockFindings runs the whole-program held-set walk and cycle check once.
func lockFindings(prog *Program) []lockFinding {
	return prog.Fact(lockFindingsKey, func() any {
		mayBlock := lockMayBlock(prog)
		acquires := lockAcquires(prog)
		var finds []lockFinding
		var edges []lockEdge
		edgeSeen := map[string]bool{}

		addEdge := func(from, to string, pkg *Package, pos token.Pos) {
			if from == to {
				return // recursive re-acquisition is a runtime panic, not an order edge
			}
			key := from + "→" + to
			if edgeSeen[key] {
				return
			}
			edgeSeen[key] = true
			edges = append(edges, lockEdge{from: from, to: to, pkg: pkg, pos: pos})
		}

		for _, src := range prog.funcs {
			pkg := src.Pkg
			walkHeld(pkg, src.Decl.Body, nil, func(held []string, n ast.Node) {
				if len(held) == 0 {
					return
				}
				switch x := n.(type) {
				case *ast.SendStmt:
					finds = append(finds, lockFinding{pkg, x.Pos(), fmt.Sprintf(
						"channel send while holding lock %s: a blocked send strands every contended locker",
						strings.Join(held, ", "))})
				case *ast.UnaryExpr:
					if x.Op == token.ARROW {
						finds = append(finds, lockFinding{pkg, x.Pos(), fmt.Sprintf(
							"channel receive while holding lock %s: a blocked receive strands every contended locker",
							strings.Join(held, ", "))})
					}
				case *ast.CallExpr:
					callee := Callee(pkg, x)
					if callee == nil {
						return
					}
					if isLckMtxMethod(callee) {
						if to, ok := lockAcquired(pkg, CallSite{x, callee}); ok {
							for _, h := range held {
								addEdge(h, to, pkg, x.Pos())
							}
						}
						return
					}
					if lockBlockSeed(callee) || mayBlock[callee] {
						finds = append(finds, lockFinding{pkg, x.Pos(), fmt.Sprintf(
							"call to %s may park the Proc while holding lock %s: a parked owner can only be woken by a thread that may itself need the lock",
							callee.Name(), strings.Join(held, ", "))})
						return
					}
					// Sorted, so the edge list (and thus which cycle the
					// search below reports) does not follow map order.
					var tos []string
					for to := range acquires[callee] {
						tos = append(tos, to)
					}
					sort.Strings(tos)
					for _, to := range tos {
						for _, h := range held {
							addEdge(h, to, pkg, x.Pos())
						}
					}
				}
			})
		}

		// Cycle detection over the edge graph.
		adj := map[string][]lockEdge{}
		for _, e := range edges {
			adj[e.from] = append(adj[e.from], e)
		}
		var nodes []string
		for n := range adj {
			nodes = append(nodes, n)
		}
		sort.Strings(nodes)
		const (
			white = 0
			grey  = 1
			black = 2
		)
		color := map[string]int{}
		var stack []string
		var dfs func(n string)
		reported := map[string]bool{}
		dfs = func(n string) {
			color[n] = grey
			stack = append(stack, n)
			for _, e := range adj[n] {
				switch color[e.to] {
				case white:
					dfs(e.to)
				case grey:
					// Found a cycle: slice the stack from e.to onward.
					i := len(stack) - 1
					for i >= 0 && stack[i] != e.to {
						i--
					}
					cyc := append(append([]string{}, stack[i:]...), e.to)
					key := strings.Join(cyc, "→")
					if !reported[key] {
						reported[key] = true
						finds = append(finds, lockFinding{e.pkg, e.pos, fmt.Sprintf(
							"lock-order cycle: %s — two threads acquiring in opposite orders deadlock",
							strings.Join(cyc, " → "))})
					}
				}
			}
			stack = stack[:len(stack)-1]
			color[n] = black
		}
		for _, n := range nodes {
			if color[n] == white {
				dfs(n)
			}
		}
		return finds
	}).([]lockFinding)
}

// walkHeld performs a syntactic held-set walk over a function body: Lock
// adds, Unlock removes, deferred Unlocks persist to the end, and visit is
// invoked for every node with the held set active at that point.
func walkHeld(pkg *Package, body *ast.BlockStmt, held []string, visit func(held []string, n ast.Node)) {
	heldSet := map[string]bool{}
	for _, h := range held {
		heldSet[h] = true
	}
	order := append([]string{}, held...)
	snapshot := func() []string { return append([]string{}, order...) }

	lockCall := func(n ast.Node) (id string, isLock, isUnlock bool) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return "", false, false
		}
		fn := Callee(pkg, call)
		if !isLckMtxMethod(fn) {
			return "", false, false
		}
		sel, ok := Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return "", false, false
		}
		id = lockID(pkg, sel.X)
		switch fn.Name() {
		case "Lock":
			return id, true, false
		case "Unlock":
			return id, false, true
		}
		return "", false, false
	}

	var walkStmt func(s ast.Stmt)
	visitExpr := func(n ast.Node) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if m == nil {
				return false
			}
			if _, ok := m.(*ast.FuncLit); ok {
				return false // closures run later, outside this held region
			}
			visit(snapshot(), m)
			return true
		})
	}
	acquire := func(id string) {
		if !heldSet[id] {
			heldSet[id] = true
			order = append(order, id)
		}
	}
	release := func(id string) {
		if heldSet[id] {
			delete(heldSet, id)
			for i, h := range order {
				if h == id {
					order = append(order[:i], order[i+1:]...)
					break
				}
			}
		}
	}

	walkStmt = func(s ast.Stmt) {
		switch st := s.(type) {
		case nil:
		case *ast.BlockStmt:
			for _, inner := range st.List {
				walkStmt(inner)
			}
		case *ast.ExprStmt:
			if id, isLock, isUnlock := lockCall(st.X); isLock || isUnlock {
				// The acquisition call itself is visited (it is the edge
				// source when other locks are held) before mutating state.
				visitExpr(st.X)
				if isLock {
					acquire(id)
				} else {
					release(id)
				}
				return
			}
			visitExpr(st.X)
		case *ast.DeferStmt:
			if _, _, isUnlock := lockCall(st.Call); isUnlock {
				return // deferred unlock: the lock stays held to the end of the body
			}
			visitExpr(st.Call)
		case *ast.IfStmt:
			walkStmt(st.Init)
			visitExpr(st.Cond)
			walkStmt(st.Body)
			walkStmt(st.Else)
		case *ast.ForStmt:
			walkStmt(st.Init)
			visitExpr(st.Cond)
			walkStmt(st.Body)
			walkStmt(st.Post)
		case *ast.RangeStmt:
			visitExpr(st.X)
			walkStmt(st.Body)
		case *ast.SwitchStmt:
			walkStmt(st.Init)
			visitExpr(st.Tag)
			for _, cc := range st.Body.List {
				if clause, ok := cc.(*ast.CaseClause); ok {
					for _, e := range clause.List {
						visitExpr(e)
					}
					for _, inner := range clause.Body {
						walkStmt(inner)
					}
				}
			}
		case *ast.TypeSwitchStmt:
			walkStmt(st.Init)
			walkStmt(st.Assign)
			for _, cc := range st.Body.List {
				if clause, ok := cc.(*ast.CaseClause); ok {
					for _, inner := range clause.Body {
						walkStmt(inner)
					}
				}
			}
		case *ast.SelectStmt:
			for _, cc := range st.Body.List {
				if clause, ok := cc.(*ast.CommClause); ok {
					walkStmt(clause.Comm)
					for _, inner := range clause.Body {
						walkStmt(inner)
					}
				}
			}
		case *ast.LabeledStmt:
			walkStmt(st.Stmt)
		default:
			visitExpr(st)
		}
	}
	for _, s := range body.List {
		walkStmt(s)
	}
}

func runLockOrder(pass *Pass) error {
	if !IsSimPackage(pass.Pkg.Path) {
		return nil
	}
	for _, f := range lockFindings(pass.Prog) {
		if f.pkg == pass.Pkg {
			pass.Reportf(f.pos, "%s", f.msg)
		}
	}
	return nil
}
