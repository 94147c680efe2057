package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// HotAlloc verifies the scheduler's steady-state allocation discipline
// statically: a function annotated
//
//	//hot:noalloc
//
// in its doc comment must be allocation-free on its steady-state path,
// guarding the 0-allocs/switch invariant from the PR 3 benchmark work
// without needing a benchmark run. Annotated functions cover the switch
// path (Advance/Park/Sleep/Wake and the proc heap), the WaitQueue, the
// trace fast path, and the fault-injector consult.
//
// Direct allocation sites flagged in an annotated function (or anything
// it calls, transitively — the chargecheck fixpoint idiom with a witness
// chain in the message):
//
//   - make, new
//   - &T{...} composite-literal address (escapes on the paths these
//     functions are called from)
//   - slice and map composite literals
//   - function literals (closure allocation)
//   - string concatenation and string<->[]byte conversions
//   - calls into formatting/string-building stdlib packages (fmt,
//     strings, strconv, errors, sort)
//
// Amortized growth is exempt by policy: append and map-index assignment
// reallocate only on growth, which the freelist/ring designs bound; the
// steady state is allocation-free, which is exactly what the benchmarks
// assert. Unresolvable calls (interface methods, function values) are
// assumed allocation-free so findings stay high-confidence; value-to-
// interface boxing is out of scope (DESIGN.md records both).
//
// Cold paths inside hot functions (a lazily allocated map, a freelist
// miss) carry //lint:allow hotalloc: directives with the justification
// the suppression policy requires.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "//hot:noalloc functions must be allocation-free (make/new/&lit/" +
		"closures/string building), transitively; append and map insert " +
		"are exempt as amortized growth",
	Run: runHotAlloc,
}

// HotAnnotation is the doc-comment marker for allocation-free functions.
const HotAnnotation = "//hot:noalloc"

// allocPronePkgs are stdlib packages whose exported entry points allocate
// as a matter of course.
var allocPronePkgs = map[string]bool{
	"fmt": true, "strings": true, "strconv": true, "errors": true, "sort": true,
}

// allocWitness describes why a function may allocate: a direct site, or
// the callee that does.
type allocWitness struct {
	what string
	pos  token.Pos
	// via, when non-nil, is the callee the allocation was inherited from.
	via *types.Func
	// depth is the length of the call chain down to the direct site: 0 for
	// a direct site, one more than via's depth when inherited.
	depth int
}

const hotAllocKey = "hotalloc.mayalloc"

// directAllocs scans one node for direct allocation sites. exempt growth
// (append, map insert) never appears here.
func directAllocs(pkg *Package, root ast.Node) []allocWitness {
	var out []allocWitness
	ast.Inspect(root, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			fun := Unparen(x.Fun)
			if id, ok := fun.(*ast.Ident); ok {
				if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "make":
						out = append(out, allocWitness{what: "make", pos: x.Pos()})
					case "new":
						out = append(out, allocWitness{what: "new", pos: x.Pos()})
					}
					return true
				}
			}
			// string <-> []byte conversions copy.
			if tv, ok := pkg.Info.Types[fun]; ok && tv.IsType() && len(x.Args) == 1 {
				dst := tv.Type.Underlying()
				src := pkg.Info.Types[x.Args[0]].Type
				if src != nil && isStringByteConv(dst, src.Underlying()) {
					out = append(out, allocWitness{what: "string/[]byte conversion", pos: x.Pos()})
				}
				return true
			}
			if fn := Callee(pkg, x); fn != nil && fn.Pkg() != nil && allocPronePkgs[fn.Pkg().Path()] {
				out = append(out, allocWitness{
					what: fn.Pkg().Path() + "." + fn.Name() + " call", pos: x.Pos()})
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := Unparen(x.X).(*ast.CompositeLit); ok {
					out = append(out, allocWitness{what: "&composite literal", pos: x.Pos()})
				}
			}
		case *ast.CompositeLit:
			if tv, ok := pkg.Info.Types[x]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					out = append(out, allocWitness{what: "slice literal", pos: x.Pos()})
				case *types.Map:
					out = append(out, allocWitness{what: "map literal", pos: x.Pos()})
				}
			}
		case *ast.FuncLit:
			out = append(out, allocWitness{what: "func literal", pos: x.Pos()})
			return false // its body runs elsewhere; the closure itself is the cost here
		case *ast.BinaryExpr:
			if x.Op == token.ADD {
				if tv, ok := pkg.Info.Types[x]; ok {
					if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						out = append(out, allocWitness{what: "string concatenation", pos: x.Pos()})
					}
				}
			}
		case *ast.GoStmt:
			out = append(out, allocWitness{what: "goroutine spawn", pos: x.Pos()})
		}
		return true
	})
	return out
}

func isStringByteConv(dst, src types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isBytes := func(t types.Type) bool {
		s, ok := t.(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
	}
	return (isStr(dst) && isBytes(src)) || (isBytes(dst) && isStr(src))
}

// hotMayAlloc computes the whole-program may-allocate map with one
// witness per function, through the shared call-graph solver. Witnesses
// shrink to shortest chains as the fixpoint settles, so the result is
// independent of the order functions are visited in.
func hotMayAlloc(prog *Program) map[*types.Func]*allocWitness {
	return prog.Fact(hotAllocKey, func() any {
		allowed := map[*Package]map[string]map[int]bool{}
		set := map[*types.Func]*allocWitness{}
		prog.solve(func(src *FuncSource) bool {
			if allowed[src.Pkg] == nil {
				allowed[src.Pkg] = hotAllowedLines(prog, src.Pkg)
			}
			w := fnAllocWitness(prog, src, set, allowed[src.Pkg])
			if w == nil || (set[src.Fn] != nil && *w == *set[src.Fn]) {
				return false
			}
			set[src.Fn] = w
			return true
		})
		return set
	}).(map[*types.Func]*allocWitness)
}

// hotAllowedLines maps filename → lines covered by a well-formed
// //lint:allow hotalloc directive (the directive's line and the next,
// matching the suppression matcher in RunAll). Sites on covered lines,
// direct allocations and calls into allocating callees alike, are
// justified cold paths and must not taint callers in the fixpoint.
// The directives come from the one parser RunAll uses, so an allow that
// parser rejects as malformed exempts nothing here either.
func hotAllowedLines(prog *Program, pkg *Package) map[string]map[int]bool {
	covered := map[string]map[int]bool{}
	for _, d := range parseDirectives(prog, pkg, map[string]bool{"hotalloc": true}, new([]Diagnostic)) {
		if covered[d.file] == nil {
			covered[d.file] = map[int]bool{}
		}
		covered[d.file][d.line] = true
		covered[d.file][d.line+1] = true
	}
	return covered
}

// fnAllocWitness returns the canonical allocation witness for src: the
// first direct site by position, or else the first call, in source order,
// to a callee on a shortest chain down to a direct site. Sites and calls
// suppressed by a //lint:allow hotalloc directive are skipped here (they
// still get reported — and suppressed — inside annotated functions).
func fnAllocWitness(prog *Program, src *FuncSource, set map[*types.Func]*allocWitness, allowed map[string]map[int]bool) *allocWitness {
	ws := directAllocs(src.Pkg, src.Decl.Body)
	var first *allocWitness
	for i := range ws {
		p := prog.Fset.Position(ws[i].pos)
		if allowed[p.Filename][p.Line] {
			continue
		}
		if first == nil || ws[i].pos < first.pos {
			first = &ws[i]
		}
	}
	if first != nil {
		return first
	}
	var found *allocWitness
	for _, c := range src.Calls {
		if p := prog.Fset.Position(c.Call.Pos()); allowed[p.Filename][p.Line] {
			continue
		}
		// A nil callee (function value, interface dispatch) is assumed clean.
		if w := set[c.Callee]; w != nil && (found == nil || w.depth+1 < found.depth) {
			found = &allocWitness{what: w.what, pos: c.Call.Pos(), via: c.Callee, depth: w.depth + 1}
		}
	}
	return found
}

// hotAnnotated reports whether a declaration carries the //hot:noalloc
// marker in its doc comment.
func hotAnnotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), HotAnnotation) {
			return true
		}
	}
	return false
}

func runHotAlloc(pass *Pass) error {
	if !IsSimPackage(pass.Pkg.Path) {
		return nil
	}
	prog := pass.Prog
	pkg := pass.Pkg
	set := hotMayAlloc(prog)

	// witnessChain renders the inherited-allocation path fn → g → site.
	witnessChain := func(fn *types.Func) string {
		var hops []string
		w := set[fn]
		for w != nil && w.via != nil && len(hops) < 6 {
			hops = append(hops, w.via.Name())
			w = set[w.via]
		}
		if len(hops) == 0 {
			return ""
		}
		return " (via " + strings.Join(hops, " → ") + ")"
	}

	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !hotAnnotated(fd) || fd.Body == nil {
				continue
			}
			// Direct sites: report every one, at the site, so //lint:allow
			// can suppress cold paths individually.
			direct := directAllocs(pkg, fd.Body)
			sort.Slice(direct, func(i, j int) bool { return direct[i].pos < direct[j].pos })
			for _, w := range direct {
				pass.Reportf(w.pos,
					"allocation in //hot:noalloc %s: %s breaks the 0-allocs steady-state invariant",
					fd.Name.Name, w.what)
			}
			// Inherited: report at the offending call sites.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false // already flagged as a closure allocation
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := Callee(pkg, call)
				if fn == nil {
					return true
				}
				if w := set[fn]; w != nil {
					pass.Reportf(call.Pos(),
						"//hot:noalloc %s calls %s, which may allocate: %s%s",
						fd.Name.Name, fn.Name(), w.what, witnessChain(fn))
				}
				return true
			})
		}
	}
	return nil
}
