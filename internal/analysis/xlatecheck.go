package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// XlateCheck is the interprocedural taint pass for persona-numbered
// payloads: raw errno/flag/signal constants of one persona's numbering
// must never flow into a trap (or a trap-bound parameter) of the other
// persona without passing through a translation helper. It mechanizes the
// PR 6 open(O_CREAT) divergence as a lint.
//
// Constant domains are assigned by declaration site and naming convention
// (DESIGN.md pins both as part of the ABI contract):
//
//   - linux (canonical) payloads: kernel-package constants of the Errno
//     type, the SIG*/sig* signal numbers, the O* open-flag bits, and the
//     RLimit* rlimit resource numbers.
//   - xnu payloads: abi-package XNUO* open-flag bits and XNURLimit*
//     rlimit resource numbers.
//
// Trap domains come from the syscall-number argument of Thread.Syscall:
// a number declared in the kernel package is a Linux trap, one declared
// in the abi package is an XNU trap. Translation helpers — SignalToXNU,
// SignalFromXNU, ErrnoToXNU, ErrnoFromXNU — sanitize their argument
// subtree and produce a value of the target domain.
//
// The pass is interprocedural in the chargecheck style: a whole-program
// fixpoint assigns each integer-typed parameter a required domain when it
// flows, untranslated, into a trap's argument payload (directly or
// through other calls). Call sites passing a wrong-domain constant into a
// required parameter are findings — e.g. kernel.SIGUSR1 into
// libsystem.Kill, whose sig parameter feeds the XNU kill trap. Unresolved
// flows impose no requirement, and neither does a parameter that reaches
// traps of both personas (the join of Linux and XNU is "both", which
// propagates to callers as such), so findings are high-confidence.
//
// Two syntactic rules complete the pass:
//
//   - a wrap(...) table registration for the argument-translating
//     syscalls (open, kill, sigaction) must install a non-nil transform —
//     wrapping with nil forwards raw foreign numbers, the exact PR 6
//     open bug shape;
//   - an assignment into the iOS TLS errno field
//     (Persona.TLS(persona.IOS).Errno) must route through ErrnoToXNU
//     when the right-hand side carries an Errno-typed value.
var XlateCheck = &Analyzer{
	Name: "xlatecheck",
	Doc: "raw errno/flag/signal constants must not cross the persona " +
		"boundary untranslated; payload-carrying syscalls must be wrapped " +
		"with an argument transform (the PR 6 open(O_CREAT) bug as a lint)",
	Run: runXlateCheck,
}

// xlateDomain is a persona numbering domain. As a parameter requirement
// it is a four-point lattice, none < Linux, XNU < both, whose join is
// bitwise or: a parameter that feeds traps of both personas is domBoth.
type xlateDomain int

const (
	domNone  xlateDomain = 0
	domLinux xlateDomain = 1
	domXNU   xlateDomain = 2
	domBoth              = domLinux | domXNU
)

func (d xlateDomain) String() string {
	switch d {
	case domLinux:
		return "Linux"
	case domXNU:
		return "XNU"
	}
	return "none"
}

func (d xlateDomain) opposite() xlateDomain {
	switch d {
	case domLinux:
		return domXNU
	case domXNU:
		return domLinux
	}
	return domNone
}

// xformRequired names the syscalls whose arguments carry persona-numbered
// payloads (flags for open, signal numbers for kill/sigaction): a table
// wrapper for these must translate, never forward raw.
var xformRequired = map[string]bool{
	"open": true, "kill": true, "sigaction": true,
	// rlimit resource numbers differ between the personas (XNU NOFILE is
	// 8 where Linux says 7): the XNU table wrappers must renumber.
	"getrlimit": true, "setrlimit": true,
}

// translationHelpers maps helper names to the domain of their result; a
// call to one also sanitizes its argument subtree.
var translationHelpers = map[string]xlateDomain{
	"SignalToXNU":   domXNU,
	"ErrnoToXNU":    domXNU,
	"RlimitToXNU":   domXNU,
	"SignalFromXNU": domLinux,
	"ErrnoFromXNU":  domLinux,
	"RlimitFromXNU": domLinux,
}

// payloadConstDomain classifies a constant as a persona-numbered payload.
func payloadConstDomain(c *types.Const) xlateDomain {
	if c.Pkg() == nil {
		return domNone
	}
	name := c.Name()
	switch c.Pkg().Name() {
	case "kernel":
		if named, ok := c.Type().(*types.Named); ok && named.Obj().Name() == "Errno" {
			return domLinux
		}
		if strings.HasPrefix(name, "SIG") || (strings.HasPrefix(name, "sig") && name != "sig") {
			if name == "SIGNONE" || name == "signil" {
				return domNone
			}
			return domLinux
		}
		if strings.HasPrefix(name, "O") && len(name) > 1 && name[1] >= 'A' && name[1] <= 'Z' {
			return domLinux // OCreat-style open flag bits
		}
		// RLimitNoFile-style rlimit resource numbers (RLimInfinity is the
		// same bit pattern in both personas and stays domain-free).
		if strings.HasPrefix(name, "RLimit") {
			return domLinux
		}
	case "abi":
		const p = "XNUO"
		if strings.HasPrefix(name, p) && len(name) > len(p) &&
			name[len(p)] >= 'A' && name[len(p)] <= 'Z' {
			return domXNU
		}
		if strings.HasPrefix(name, "XNURLimit") {
			return domXNU
		}
	}
	return domNone
}

// trapDomain classifies a syscall-number expression by the declaring
// package of the constant it resolves to.
func trapDomain(pkg *Package, e ast.Expr) xlateDomain {
	e = Unparen(e)
	var obj types.Object
	switch x := e.(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[x]
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[x.Sel]
	default:
		return domNone
	}
	c, ok := obj.(*types.Const)
	if !ok || c.Pkg() == nil {
		return domNone
	}
	switch c.Pkg().Name() {
	case "kernel":
		return domLinux
	case "abi":
		return domXNU
	}
	return domNone
}

// isTranslationCall reports whether call invokes a translation helper,
// returning the produced domain.
func isTranslationCall(pkg *Package, call *ast.CallExpr) (xlateDomain, bool) {
	fn := Callee(pkg, call)
	if fn == nil {
		return domNone, false
	}
	d, ok := translationHelpers[fn.Name()]
	return d, ok
}

// xlateTaint is one persona-numbered value found in an expression.
type xlateTaint struct {
	dom  xlateDomain
	desc string
	pos  token.Pos
}

// exprTaints walks e collecting persona-numbered payloads that are not
// shielded by a translation helper: payload constants and helper results.
func exprTaints(pkg *Package, e ast.Expr) []xlateTaint {
	var out []xlateTaint
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if d, ok := isTranslationCall(pkg, x); ok {
				out = append(out, xlateTaint{
					dom:  d,
					desc: "result of " + Callee(pkg, x).Name(),
					pos:  x.Pos(),
				})
				return false // the helper sanitizes its own arguments
			}
		case *ast.Ident:
			if c, ok := pkg.Info.Uses[x].(*types.Const); ok {
				if d := payloadConstDomain(c); d != domNone {
					out = append(out, xlateTaint{dom: d, desc: c.Name(), pos: x.Pos()})
				}
			}
		}
		return true
	})
	return out
}

// paramDomains is the whole-program fact: for each function, the join of
// the trap domains each parameter (by index) reaches. Only domLinux and
// domXNU are requirements; domNone never reaches a trap and domBoth
// serves both personas.
type paramDomains map[*types.Func][]xlateDomain

const xlateFactKey = "xlatecheck.paramdomains"

// isBasicIntParam limits requirement tracking to plain integer-ish
// parameters — the shape signal numbers, flags, and errnos travel in.
func isBasicIntParam(v *types.Var) bool {
	t := v.Type()
	if named, ok := t.(*types.Named); ok {
		t = named.Underlying()
	}
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// isRequirement reports whether a parameter domain constrains call sites.
func (d xlateDomain) isRequirement() bool { return d == domLinux || d == domXNU }

// isTrapCall matches the trap entry point: Thread.Syscall(num, payload).
func isTrapCall(c CallSite) bool {
	return c.Callee != nil && c.Callee.Name() == "Syscall" && RecvTypeName(c.Callee) == "Thread" && len(c.Call.Args) == 2
}

// usedParams returns the tracked parameters used untranslated in e.
func usedParams(pkg *Package, e ast.Expr, params map[*types.Var]int) []*types.Var {
	var out []*types.Var
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if _, isHelper := isTranslationCall(pkg, call); isHelper {
				return false // translated: no raw requirement
			}
		}
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := pkg.Info.Uses[id].(*types.Var); ok {
				if _, tracked := params[v]; tracked {
					out = append(out, v)
				}
			}
		}
		return true
	})
	return out
}

// xlateParamDomains computes the parameter-domain fixpoint through the
// shared call-graph solver.
func xlateParamDomains(prog *Program) paramDomains {
	return prog.Fact(xlateFactKey, func() any {
		req := paramDomains{}
		prog.solve(func(src *FuncSource) bool {
			sig := src.Fn.Type().(*types.Signature)
			params := map[*types.Var]int{}
			for i := 0; i < sig.Params().Len(); i++ {
				if p := sig.Params().At(i); isBasicIntParam(p) {
					params[p] = i
				}
			}
			if len(params) == 0 {
				return false
			}
			doms := req[src.Fn]
			if doms == nil {
				doms = make([]xlateDomain, sig.Params().Len())
				req[src.Fn] = doms
			}
			changed := false
			join := func(e ast.Expr, d xlateDomain) {
				for _, v := range usedParams(src.Pkg, e, params) {
					if i := params[v]; doms[i]|d != doms[i] {
						doms[i] |= d
						changed = true
					}
				}
			}
			for _, c := range src.Calls {
				if isTrapCall(c) {
					// Direct trap: the payload inherits the trap's domain.
					join(c.Call.Args[1], trapDomain(src.Pkg, c.Call.Args[0]))
					continue
				}
				// Transitive: a tracked param passed straight into a callee
				// parameter. Indices are parameter positions, matching
				// Call.Args for both functions and methods in go/types.
				for i, d := range req[c.Callee] {
					if i < len(c.Call.Args) && d != domNone {
						join(c.Call.Args[i], d)
					}
				}
			}
			return changed
		})
		return req
	}).(paramDomains)
}

func runXlateCheck(pass *Pass) error {
	if !IsSimPackage(pass.Pkg.Path) {
		return nil
	}
	req := xlateParamDomains(pass.Prog)
	pkg := pass.Pkg

	type finding struct {
		pos token.Pos
		msg string
	}
	var finds []finding
	report := func(pos token.Pos, format string, args ...any) {
		finds = append(finds, finding{pos, fmt.Sprintf(format, args...)})
	}

	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.CallExpr:
				// Rule 1: wrap(num, num, "name", nil) for a
				// payload-carrying syscall.
				if id, ok := Unparen(node.Fun).(*ast.Ident); ok && id.Name == "wrap" && len(node.Args) == 4 {
					if name, ok := stringLit(node.Args[2]); ok && xformRequired[name] {
						if isNilIdent(pkg, node.Args[3]) {
							report(node.Pos(),
								"syscall %q carries persona-numbered payloads but is wrapped with a nil transform: raw foreign numbers reach the Linux implementation (the PR 6 open(O_CREAT) divergence)",
								name)
						}
					}
					return true
				}
				callee := Callee(pkg, node)
				if callee == nil {
					return true
				}
				// Rule 2: direct trap payloads.
				if isTrapCall(CallSite{node, callee}) {
					d := trapDomain(pkg, node.Args[0])
					if d == domNone {
						return true
					}
					for _, t := range exprTaints(pkg, node.Args[1]) {
						if t.dom == d.opposite() {
							report(t.pos,
								"%s payload %s flows into a %s trap untranslated: route it through the %s-facing translation helper",
								t.dom, t.desc, d, d)
						}
					}
					return true
				}
				// Rule 3: interprocedural — wrong-domain payload into a
				// requirement-carrying parameter.
				if doms, ok := req[callee]; ok {
					for i, arg := range node.Args {
						if i >= len(doms) || !doms[i].isRequirement() {
							continue
						}
						for _, t := range exprTaints(pkg, arg) {
							if t.dom == doms[i].opposite() {
								report(t.pos,
									"%s payload %s flows into %s parameter %d of %s, which feeds a %s trap: translate at the boundary",
									t.dom, t.desc, doms[i], i, callee.Name(), doms[i])
							}
						}
					}
				}
			case *ast.AssignStmt:
				// Rule 4: iOS TLS errno writes must be XNU-numbered.
				checkTLSErrnoWrite(pkg, node, report)
			}
			return true
		})
	}

	sort.SliceStable(finds, func(i, j int) bool { return finds[i].pos < finds[j].pos })
	for _, f := range finds {
		pass.Reportf(f.pos, "%s", f.msg)
	}
	return nil
}

// checkTLSErrnoWrite flags `<x>.TLS(persona.IOS).Errno = <rhs>` where rhs
// carries an Errno-typed value with no ErrnoToXNU on the path.
func checkTLSErrnoWrite(pkg *Package, as *ast.AssignStmt, report func(token.Pos, string, ...any)) {
	for i, lhs := range as.Lhs {
		sel, ok := Unparen(lhs).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Errno" {
			continue
		}
		call, ok := Unparen(sel.X).(*ast.CallExpr)
		if !ok {
			continue
		}
		fn := Callee(pkg, call)
		if fn == nil || fn.Name() != "TLS" || len(call.Args) != 1 {
			continue
		}
		if !isIOSConst(pkg, call.Args[0]) {
			continue
		}
		if i >= len(as.Rhs) {
			continue
		}
		rhs := as.Rhs[i]
		if exprHasErrnoValue(pkg, rhs) && !exprCallsHelper(pkg, rhs, "ErrnoToXNU") {
			report(as.Pos(),
				"canonical Errno value written to the iOS TLS errno field without ErrnoToXNU: an iOS thread reads Linux numbering (the errno-35 border crossing)")
		}
	}
}

// isIOSConst matches an argument resolving to a constant named IOS.
func isIOSConst(pkg *Package, e ast.Expr) bool {
	var obj types.Object
	switch x := Unparen(e).(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[x]
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[x.Sel]
	default:
		return false
	}
	c, ok := obj.(*types.Const)
	return ok && c.Name() == "IOS"
}

// exprHasErrnoValue reports whether e contains a value of a named type
// Errno (outside translation-helper calls).
func exprHasErrnoValue(pkg *Package, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if _, isHelper := isTranslationCall(pkg, call); isHelper {
				return false
			}
		}
		ex, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if tv, ok := pkg.Info.Types[ex]; ok {
			if named, ok := tv.Type.(*types.Named); ok && named.Obj().Name() == "Errno" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// exprCallsHelper reports whether e contains a call to the named helper.
func exprCallsHelper(pkg *Package, e ast.Expr, helper string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := Callee(pkg, call); fn != nil && fn.Name() == helper {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// stringLit unwraps a quoted string literal.
func stringLit(e ast.Expr) (string, bool) {
	bl, ok := Unparen(e).(*ast.BasicLit)
	if !ok || bl.Kind != token.STRING || len(bl.Value) < 2 {
		return "", false
	}
	return bl.Value[1 : len(bl.Value)-1], true
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(pkg *Package, e ast.Expr) bool {
	id, ok := Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := pkg.Info.Uses[id].(*types.Nil)
	return isNil || id.Name == "nil"
}
