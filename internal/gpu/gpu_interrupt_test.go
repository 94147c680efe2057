package gpu

import (
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/persona"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// Regression test for a wakeup bug found by ciderlint's waketag analyzer:
// WaitFence/Finish discarded the wake tag of their completion sleep, so a
// signal arriving mid-wait made the fence appear signaled while the GPU
// work was still in flight. An interrupted wait must resume until the
// completion clock really is reached.
//
// The interrupt is delivered by the fault layer (OpPark on the fence
// wait's sleep), not by a dedicated killer process: the injector fires on
// the victim's own park, which both removes the scaffolding and pins the
// interrupt to exactly the wait under test.
func TestFenceWaitSurvivesInterrupt(t *testing.T) {
	s := sim.New()
	reg := prog.NewRegistry()
	fs := vfs.New()
	k, err := kernel.New(s, kernel.Config{
		Profile: kernel.ProfileLinuxVanilla, Device: hw.Nexus7(), Root: fs, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	k.SetSyscallTable(persona.Android, kernel.LinuxTable(k.PersonaAware()))
	k.RegisterBinFmt(&kernel.ELFLoader{})
	in := fault.NewInjector(fault.Plan{Name: "fence-eintr", Seed: 1, Rules: []fault.Rule{
		{Op: fault.OpPark, Match: "sleep", Nth: 1},
	}})
	k.EnableFaults(in)

	var woke, retire time.Duration
	reg.MustRegister("gpu-victim", func(c *prog.Call) uint64 {
		th := c.Ctx.(*kernel.Thread)
		g := New(hw.Nexus7().GPU)
		g.Draw(th, 6_000_000, 0) // ~100ms of GPU work
		f := g.CreateFence(th)
		retire = g.BusyUntil()
		g.WaitFence(th, f)
		woke = th.Now()
		return 0
	})
	bin, err := prog.StaticELF("gpu-victim")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/bin/gpu-victim", bin); err != nil {
		t.Fatal(err)
	}
	if _, err := k.StartProcess("/bin/gpu-victim", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if in.Fired() != 1 {
		t.Fatalf("injector fired %d times, want exactly 1 (the fence wait)", in.Fired())
	}
	if woke < retire {
		t.Fatalf("fence wait returned at %v, before the GPU work retired at %v", woke, retire)
	}
}
