// Package diplomat implements Cider's diplomatic functions (Section 4.3):
// stubs that let foreign (iOS) code call into domestic (Android) libraries
// by temporarily switching the calling thread's persona — kernel ABI and
// TLS area — around the call.
//
// The package provides both halves of the mechanism:
//
//   - The arbitration engine (Wrap): the nine-step process — resolve and
//     cache the domestic entry point on first invocation, save arguments,
//     set_persona to the domestic persona, invoke, save the result,
//     set_persona back, convert domestic TLS values (errno) into the
//     foreign TLS area, and return.
//
//   - The generator (Generate): the paper's automation script, which
//     "analyzed exported symbols in the iOS OpenGL ES Mach-O library,
//     searched through a directory of Android ELF shared objects for a
//     matching export, and automatically generated diplomats for each
//     matching function."
package diplomat

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/abi"
	"repro/internal/elfx"
	"repro/internal/kernel"
	"repro/internal/macho"
	"repro/internal/persona"
	"repro/internal/prog"
	"repro/internal/trace"
)

// Engine performs persona arbitration for diplomatic calls on one kernel.
type Engine struct {
	k *kernel.Kernel
	// saveCost covers argument/result staging on the stack (steps 2/4/6/9).
	saveCost time.Duration
	// resolveCost is the first-invocation dlopen/dlsym work (step 1).
	resolveCost time.Duration
	// errnoCost is the TLS conversion (step 8).
	errnoCost time.Duration
	// calls counts diplomatic invocations (benchmarks).
	calls uint64
}

// NewEngine builds an arbitration engine for a kernel.
func NewEngine(k *kernel.Kernel) *Engine {
	cpu := k.Device().CPU
	return &Engine{
		k:           k,
		saveCost:    cpu.Cycles(90),
		resolveCost: cpu.Cycles(390000), // ~300 µs: load + locate entry point
		errnoCost:   cpu.Cycles(65),
	}
}

// Calls reports how many diplomatic calls have completed.
func (e *Engine) Calls() uint64 { return e.calls }

// Wrap builds a diplomat: a foreign-callable stub around the domestic
// function registered under domesticKey. The returned function implements
// the arbitration process of Section 4.3.
func (e *Engine) Wrap(domesticKey string) prog.Func {
	// Step 1 state: "storing a pointer to the function in a
	// locally-scoped static variable for efficient reuse".
	var cached prog.Func
	return func(c *prog.Call) uint64 {
		t, ok := c.Ctx.(*kernel.Thread)
		if !ok {
			return ^uint64(0)
		}
		if cached == nil {
			t.Charge(e.resolveCost)
			fn, found := e.k.Registry().Lookup(domesticKey)
			if !found {
				return ^uint64(0)
			}
			cached = fn
			if tr := e.k.Tracer(); tr != nil {
				tr.Count(trace.CounterDiplomatResolves, 1)
			}
		}
		return e.hop(t, cached, c)
	}
}

// hop performs steps 2–9 of the arbitration around the resolved domestic
// function fn. Step 5 hands fn the caller's own Call: its Ctx is already
// t and its Args are the arguments to forward, so a copy would hold the
// same two values.
//
//hot:noalloc
func (e *Engine) hop(t *kernel.Thread, fn prog.Func, c *prog.Call) uint64 {
	// Step 2: save the arguments on the stack.
	t.Charge(e.saveCost)
	// Step 3: set_persona to the domestic persona, via the foreign
	// table's trap ("available from all personas").
	from := t.Persona.Current()
	t.SetPersona(setPersonaNum(from), persona.Android)
	// Step 4: restore the arguments.
	t.Charge(e.saveCost)
	// Step 5: direct invocation through the cached symbol.
	ret := fn(c)
	// Step 6: save the return value.
	t.Charge(e.saveCost)
	// Step 7: switch back, trapping through the *domestic* table now.
	t.SetPersona(kernel.SysSetPersona, from)
	// Step 8: convert domestic TLS values into the foreign TLS area.
	t.Charge(e.errnoCost)
	domErrno := t.Persona.TLS(persona.Android).Errno
	if domErrno != 0 {
		t.Persona.TLS(persona.IOS).Errno = kernel.ErrnoToXNU(kernel.Errno(domErrno))
	}
	// Step 9: restore the result and return.
	t.Charge(e.saveCost)
	e.calls++
	if tr := e.k.Tracer(); tr != nil {
		tr.Count(trace.CounterDiplomatCalls, 1)
	}
	return ret
}

// setPersonaNum is set_persona's trap number in the table of persona from.
func setPersonaNum(from persona.Kind) int {
	if from == persona.Android {
		return kernel.SysSetPersona
	}
	return abi.SetPersonaTrap
}

// Batch performs one arbitration round trip around fn: switch to the
// domestic persona, run fn (which may invoke many domestic functions
// directly), switch back, convert TLS state. This is the paper's proposed
// future-work optimization — "aggregating OpenGL ES calls into a single
// diplomat" — benchmarked by BenchmarkAblationDiplomatAggregation.
func (e *Engine) Batch(t *kernel.Thread, fn func()) {
	from := t.Persona.Current()
	t.Charge(e.saveCost)
	t.SetPersona(setPersonaNum(from), persona.Android)
	fn()
	t.SetPersona(kernel.SysSetPersona, from)
	t.Charge(e.errnoCost + e.saveCost)
	e.calls++
	if tr := e.k.Tracer(); tr != nil {
		tr.Count(trace.CounterDiplomatCalls, 1)
	}
}

// Spec describes one generated diplomat.
type Spec struct {
	// ForeignSymbol is the Mach-O export (e.g. "_glDrawArrays").
	ForeignSymbol string
	// DomesticLib is the ELF shared object's soname (e.g. "libGLESv2.so").
	DomesticLib string
	// DomesticSymbol is the ELF export (e.g. "glDrawArrays").
	DomesticSymbol string
}

// Generate is the automation script of Section 5.3: for every exported
// symbol of the foreign Mach-O library, search the given Android shared
// objects for a matching export (Mach-O's leading underscore stripped) and
// emit a diplomat spec. Unmatched exports are returned separately — those
// need hand-written diplomats (the EAGL extensions, in the paper).
func Generate(foreign *macho.File, domestic []*elfx.File) (specs []Spec, unmatched []string) {
	for _, sym := range foreign.ExportedSymbols() {
		want := strings.TrimPrefix(sym.Name, "_")
		found := false
		for _, so := range domestic {
			if dsym, ok := so.Lookup(want); ok {
				if !dsym.Defined {
					continue
				}
				specs = append(specs, Spec{
					ForeignSymbol:  sym.Name,
					DomesticLib:    so.SoName,
					DomesticSymbol: want,
				})
				found = true
				break
			}
		}
		if !found {
			unmatched = append(unmatched, sym.Name)
		}
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].ForeignSymbol < specs[j].ForeignSymbol })
	sort.Strings(unmatched)
	return specs, unmatched
}

// Install registers diplomats for specs under the foreign library's
// install name, so dyld binds iOS apps to them: the replaced Cider version
// of the foreign library (API interposition, Section 5.3).
func (e *Engine) Install(reg *prog.Registry, foreignInstall string, specs []Spec) error {
	for _, sp := range specs {
		domKey := prog.SymbolKey("/system/lib/"+sp.DomesticLib, sp.DomesticSymbol)
		key := prog.SymbolKey(foreignInstall, sp.ForeignSymbol)
		if err := reg.Register(key, e.Wrap(domKey)); err != nil {
			return fmt.Errorf("diplomat: %s: %w", sp.ForeignSymbol, err)
		}
	}
	return nil
}
