package diplomat_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diplomat"
	"repro/internal/kernel"
	"repro/internal/persona"
	"repro/internal/prog"
)

func onIOS(t *testing.T, body func(th *kernel.Thread, sys *core.System)) *core.System {
	t.Helper()
	sys, err := core.NewSystem(core.ConfigCider)
	if err != nil {
		t.Fatal(err)
	}
	sys.InstallIOSBinary("/bin/dip", "dip-"+t.Name(), nil, func(c *prog.Call) uint64 {
		body(c.Ctx.(*kernel.Thread), sys)
		return 0
	})
	sys.Start("/bin/dip", nil)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestArbitrationRestoresPersonaAndForwardsArgs(t *testing.T) {
	onIOS(t, func(th *kernel.Thread, sys *core.System) {
		var sawPersona persona.Kind
		var sawArgs []uint64
		sys.Registry.MustRegister("dom-fn", func(c *prog.Call) uint64 {
			dt := c.Ctx.(*kernel.Thread)
			sawPersona = dt.Persona.Current()
			sawArgs = c.Args
			return c.Arg(0) + c.Arg(1)
		})
		dip := sys.Diplomat.Wrap("dom-fn")
		ret := dip(&prog.Call{Ctx: th, Args: []uint64{40, 2}})
		if ret != 42 {
			t.Errorf("ret = %d", ret)
		}
		// Step 3/5: the domestic function ran in the domestic persona.
		if sawPersona != persona.Android {
			t.Errorf("domestic fn saw persona %v", sawPersona)
		}
		if len(sawArgs) != 2 || sawArgs[0] != 40 {
			t.Errorf("args = %v", sawArgs)
		}
		// Step 7: the caller is back in the foreign persona.
		if th.Persona.Current() != persona.IOS {
			t.Errorf("caller persona = %v after diplomat", th.Persona.Current())
		}
	})
}

func TestFirstInvocationResolvesAndCaches(t *testing.T) {
	onIOS(t, func(th *kernel.Thread, sys *core.System) {
		sys.Registry.MustRegister("dom-cheap", func(c *prog.Call) uint64 { return 0 })
		dip := sys.Diplomat.Wrap("dom-cheap")
		start := th.Now()
		dip(&prog.Call{Ctx: th})
		first := th.Now() - start
		start = th.Now()
		dip(&prog.Call{Ctx: th})
		second := th.Now() - start
		// "Upon first invocation, a diplomat loads the appropriate
		// domestic library and locates the required entry point, storing a
		// pointer ... for efficient reuse."
		if first < 10*second {
			t.Errorf("first call (%v) should dwarf cached calls (%v)", first, second)
		}
		if second > 10*time.Microsecond {
			t.Errorf("cached diplomat call = %v, want a few µs", second)
		}
	})
}

func TestUnknownDomesticSymbolFails(t *testing.T) {
	onIOS(t, func(th *kernel.Thread, sys *core.System) {
		dip := sys.Diplomat.Wrap("no-such-domestic-symbol")
		if ret := dip(&prog.Call{Ctx: th}); ret != ^uint64(0) {
			t.Errorf("ret = %#x, want all-ones failure", ret)
		}
		// The thread must still be usable and in its own persona.
		if th.Persona.Current() != persona.IOS {
			t.Error("persona corrupted by failed diplomat")
		}
	})
}

func TestBatchSingleRoundTrip(t *testing.T) {
	onIOS(t, func(th *kernel.Thread, sys *core.System) {
		var personaInside persona.Kind
		switchesBefore := th.Persona.Switches()
		sys.Diplomat.Batch(th, func() {
			personaInside = th.Persona.Current()
		})
		if personaInside != persona.Android {
			t.Errorf("batch body ran in %v", personaInside)
		}
		if th.Persona.Current() != persona.IOS {
			t.Error("persona not restored after batch")
		}
		if got := th.Persona.Switches() - switchesBefore; got != 2 {
			t.Errorf("batch used %d switches, want exactly 2", got)
		}
	})
}

func TestGenerateOrderingDeterministic(t *testing.T) {
	// The generator sorts output; two Cider boots must agree.
	sys1, err := core.NewSystem(core.ConfigCider)
	if err != nil {
		t.Fatal(err)
	}
	sys2, err := core.NewSystem(core.ConfigCider)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys1.GLSpecs) != len(sys2.GLSpecs) {
		t.Fatal("spec counts differ")
	}
	for i := range sys1.GLSpecs {
		if sys1.GLSpecs[i] != sys2.GLSpecs[i] {
			t.Fatalf("spec %d differs: %+v vs %+v", i, sys1.GLSpecs[i], sys2.GLSpecs[i])
		}
	}
	// And each spec is well-formed.
	for _, sp := range sys1.GLSpecs {
		if sp.ForeignSymbol == "" || sp.DomesticLib == "" || sp.DomesticSymbol == "" {
			t.Fatalf("malformed spec %+v", sp)
		}
		if sp.ForeignSymbol[0] != '_' {
			t.Fatalf("foreign symbol %q missing Mach-O underscore", sp.ForeignSymbol)
		}
		if "_"+sp.DomesticSymbol != sp.ForeignSymbol {
			t.Fatalf("name mismatch: %q vs %q", sp.ForeignSymbol, sp.DomesticSymbol)
		}
	}
	_ = diplomat.Spec{}
}

// TestDiplomatHopAllocFree pins the diplomat hop at zero heap allocations:
// twice the hops, from either persona, must allocate exactly as much as
// half as many. An allocating hop would tax every iOS GL call on Cider.
// The set_persona traps share one read-only argument table, so after hops
// from both personas every entry must still switch to its own persona.
func TestDiplomatHopAllocFree(t *testing.T) {
	onIOS(t, func(th *kernel.Thread, sys *core.System) {
		sys.Registry.MustRegister("dom-add", func(c *prog.Call) uint64 { return c.Arg(0) + c.Arg(1) })
		dip := sys.Diplomat.Wrap("dom-add")
		call := &prog.Call{Ctx: th, Args: []uint64{40, 2}}
		dip(call) // resolve once, outside the measurement
		wrong := 0
		hops := func(n int) func() {
			return func() {
				for i := 0; i < n; i++ {
					if dip(call) != 42 {
						wrong++
					}
				}
			}
		}
		for _, from := range []persona.Kind{persona.IOS, persona.Android} {
			if ret := th.SetPersona(kernel.SysSetPersona, from); ret.Errno != kernel.OK {
				t.Errorf("set_persona(%v): errno %v", from, ret.Errno)
				return
			}
			short := testing.AllocsPerRun(10, hops(1000))
			long := testing.AllocsPerRun(10, hops(2000))
			if short != long {
				t.Errorf("from %v: %v allocs at 1000 hops, %v at 2000; want equal (a hop allocates)", from, short, long)
			}
			if th.Persona.Current() != from {
				t.Errorf("hops from %v returned in %v", from, th.Persona.Current())
			}
		}
		if wrong != 0 {
			t.Errorf("%d hops returned a wrong result", wrong)
		}
		for _, to := range []persona.Kind{persona.IOS, persona.Android, persona.IOS} {
			prev := th.Persona.Current()
			ret := th.SetPersona(kernel.SysSetPersona, to)
			if ret.Errno != kernel.OK || persona.Kind(ret.R0) != prev || th.Persona.Current() != to {
				t.Errorf("set_persona(%v) from %v: ret %+v, now %v", to, prev, ret, th.Persona.Current())
			}
		}
		for _, bad := range []persona.Kind{-1, persona.Kind(persona.NumKinds)} {
			if ret := th.SetPersona(kernel.SysSetPersona, bad); ret.Errno != kernel.EINVAL {
				t.Errorf("set_persona(%d): errno %v, want EINVAL", bad, ret.Errno)
			}
			if th.Persona.Current() != persona.IOS {
				t.Errorf("set_persona(%d) switched to %v", bad, th.Persona.Current())
			}
		}
	})
}
