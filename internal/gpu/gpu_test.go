package gpu

import (
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/persona"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// onThread runs body on a simulated kernel thread.
func onThread(t *testing.T, body func(th *kernel.Thread)) {
	t.Helper()
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
	reg.MustRegister("gpu-body", func(c *prog.Call) uint64 {
		body(c.Ctx.(*kernel.Thread))
		return 0
	})
	bin, _ := prog.StaticELF("gpu-body")
	fs.WriteFile("/bin/g", bin)
	k.StartProcess("/bin/g", nil)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSubmissionIsAsynchronous(t *testing.T) {
	onThread(t, func(th *kernel.Thread) {
		g := New(hw.Nexus7().GPU)
		before := th.Now()
		g.Draw(th, 1_000_000, 1_000_000) // ~17ms of GPU work
		cpuCost := th.Now() - before
		// The CPU only pays the command submission cost.
		if cpuCost > 100*time.Microsecond {
			t.Fatalf("submission stalled the CPU for %v", cpuCost)
		}
		if g.BusyUntil() < 10*time.Millisecond {
			t.Fatalf("GPU not busy: %v", g.BusyUntil())
		}
	})
}

func TestFinishDrainsQueue(t *testing.T) {
	onThread(t, func(th *kernel.Thread) {
		g := New(hw.Nexus7().GPU)
		g.Draw(th, 1_000_000, 0)
		g.Finish(th)
		if th.Now() < g.Model().VertexTime(1_000_000) {
			t.Fatalf("finish returned before the work retired: %v", th.Now())
		}
	})
}

func TestFenceWaitsOnlyToFencePoint(t *testing.T) {
	onThread(t, func(th *kernel.Thread) {
		g := New(hw.Nexus7().GPU)
		g.Draw(th, 600_000, 0) // ~10ms
		f := g.CreateFence(th)
		g.Draw(th, 6_000_000, 0) // ~100ms more, after the fence
		g.WaitFence(th, f)
		woke := th.Now()
		if woke > 20*time.Millisecond {
			t.Fatalf("fence waited for post-fence work: woke at %v", woke)
		}
		// But Finish must see the rest.
		g.Finish(th)
		if th.Now() < 100*time.Millisecond {
			t.Fatalf("finish missed post-fence work: %v", th.Now())
		}
	})
}

func TestBuggyFencesOverSynchronize(t *testing.T) {
	onThread(t, func(th *kernel.Thread) {
		g := New(hw.Nexus7().GPU)
		g.BuggyFences = true
		g.Draw(th, 600_000, 0)
		f := g.CreateFence(th)
		g.Draw(th, 6_000_000, 0)
		g.WaitFence(th, f)
		if th.Now() < 100*time.Millisecond {
			t.Fatalf("buggy fence should drain everything; woke at %v", th.Now())
		}
	})
}

func TestSignaledFenceDoesNotBlock(t *testing.T) {
	onThread(t, func(th *kernel.Thread) {
		g := New(hw.Nexus7().GPU)
		f := g.CreateFence(th)
		th.Charge(50 * time.Millisecond) // fence signals long ago
		before := th.Now()
		g.WaitFence(th, f)
		if th.Now()-before > time.Millisecond {
			t.Fatal("signaled fence blocked")
		}
	})
}

func TestStatsAndPresent(t *testing.T) {
	onThread(t, func(th *kernel.Thread) {
		g := New(hw.Nexus7().GPU)
		g.Draw(th, 100, 100)
		g.Draw(th, 100, 100)
		f := g.Present(th)
		g.WaitFence(th, f)
		draws, fences, busy := g.Stats()
		if draws != 2 || fences != 1 {
			t.Fatalf("stats = %d draws %d fences", draws, fences)
		}
		if busy < g.Model().FrameOverhead {
			t.Fatalf("busy = %v", busy)
		}
	})
}

func TestUploadAndFillCharges(t *testing.T) {
	onThread(t, func(th *kernel.Thread) {
		g := New(hw.Nexus7().GPU)
		g.Fill(th, 2_000_000)
		g.Upload(th, 4_000_000)
		g.Command(th)
		g.Finish(th)
		// 2M px fill + 1M px-equivalent upload at 2Gpx/s ≈ 1.5ms.
		if th.Now() < time.Millisecond {
			t.Fatalf("GPU work unaccounted: %v", th.Now())
		}
	})
}
