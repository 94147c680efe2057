package iokit

import (
	"testing"

	"repro/internal/ducttape"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/persona"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/vfs"
)

func boot(t *testing.T) (*sim.Sim, *kernel.Kernel, *Registry) {
	t.Helper()
	s := sim.New()
	k, err := kernel.New(s, kernel.Config{
		Profile: kernel.ProfileCider, Device: hw.Nexus7(),
		Root: vfs.New(), Registry: prog.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	k.SetSyscallTable(persona.Android, kernel.LinuxTable(k.PersonaAware()))
	k.RegisterBinFmt(&kernel.ELFLoader{})
	r, err := Install(k, ducttape.NewEnv(k))
	if err != nil {
		t.Fatal(err)
	}
	return s, k, r
}

func runThread(t *testing.T, s *sim.Sim, k *kernel.Kernel, body func(*kernel.Thread)) {
	t.Helper()
	key := "iokit-body-" + t.Name()
	k.Registry().MustRegister(key, func(c *prog.Call) uint64 {
		body(c.Ctx.(*kernel.Thread))
		return 0
	})
	bin, err := prog.StaticELF(key)
	if err != nil {
		t.Fatal(err)
	}
	k.Root().(*vfs.FS).WriteFile("/bin/t", bin)
	if _, err := k.StartProcess("/bin/t", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUnitsLink(t *testing.T) {
	img, err := ducttape.Link(Units())
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Unresolved()) != 0 {
		t.Fatalf("unresolved: %v", img.Unresolved())
	}
}

func TestDeviceAddCreatesRegistryEntry(t *testing.T) {
	s, k, r := boot(t)
	before := r.Entries()
	if err := k.AddDevice(kernel.NullDevice{}); err != nil {
		t.Fatal(err)
	}
	if r.Entries() != before+1 {
		t.Fatalf("entries = %d, want %d", r.Entries(), before+1)
	}
	runThread(t, s, k, func(th *kernel.Thread) {
		e, ok := r.ServiceNamed(th, "null")
		if !ok {
			t.Error("no registry entry for null device")
			return
		}
		if e.Properties["LinuxDeviceNode"] != "/dev/null" {
			t.Errorf("props = %v", e.Properties)
		}
	})
}

func TestDriverMatchingOnExistingDevice(t *testing.T) {
	s, k, r := boot(t)
	fb := NewFBDevice(hw.Nexus7().Display)
	if err := k.AddDevice(fb); err != nil {
		t.Fatal(err)
	}
	// Driver registered after the device: must match retroactively.
	if err := r.RegisterDriver(NewAppleM2CLCD(fb)); err != nil {
		t.Fatal(err)
	}
	runThread(t, s, k, func(th *kernel.Thread) {
		matches := r.ServiceMatching(th, "AppleM2CLCD")
		if len(matches) != 1 {
			t.Errorf("matches = %d, want 1", len(matches))
			return
		}
		if matches[0].Properties["IOFBWidth"] != "1280" {
			t.Errorf("props = %v", matches[0].Properties)
		}
	})
}

func TestDriverMatchingOnLaterDevice(t *testing.T) {
	s, k, r := boot(t)
	fb := NewFBDevice(hw.Nexus7().Display)
	// Driver registered before the device: must match on device_add.
	if err := r.RegisterDriver(NewAppleM2CLCD(fb)); err != nil {
		t.Fatal(err)
	}
	if err := k.AddDevice(fb); err != nil {
		t.Fatal(err)
	}
	runThread(t, s, k, func(th *kernel.Thread) {
		if len(r.ServiceMatching(th, "AppleM2CLCD")) != 1 {
			t.Error("driver did not match device added later")
		}
	})
}

func TestIOMobileFramebufferCalls(t *testing.T) {
	s, k, r := boot(t)
	fb := NewFBDevice(hw.Nexus7().Display)
	k.AddDevice(fb)
	r.RegisterDriver(NewAppleM2CLCD(fb))
	runThread(t, s, k, func(th *kernel.Thread) {
		e, _ := r.ServiceNamed(th, "fb0")
		out, err := r.Call(th, e.ID, SelGetDisplaySize, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if out[0] != 1280 || out[1] != 800 {
			t.Errorf("display size = %v", out)
		}
		if _, err := r.Call(th, e.ID, SelSwapEnd, nil); err != nil {
			t.Error(err)
		}
		if fb.Flips() != 1 {
			t.Errorf("flips = %d", fb.Flips())
		}
		if _, err := r.Call(th, e.ID, 999, nil); err == nil {
			t.Error("bad selector should fail")
		}
	})
}

func TestCallUnmatchedEntryFails(t *testing.T) {
	s, k, r := boot(t)
	k.AddDevice(kernel.ZeroDevice{})
	runThread(t, s, k, func(th *kernel.Thread) {
		e, _ := r.ServiceNamed(th, "zero")
		if _, err := r.Call(th, e.ID, 1, nil); err == nil {
			t.Error("call on driverless entry should fail")
		}
		if _, err := r.Call(th, 9999, 1, nil); err == nil {
			t.Error("call on missing entry should fail")
		}
	})
}

func TestFramebufferDeviceIoctl(t *testing.T) {
	s, k, _ := boot(t)
	fb := NewFBDevice(hw.Nexus7().Display)
	k.AddDevice(fb)
	runThread(t, s, k, func(th *kernel.Thread) {
		ret := th.Syscall(kernel.SysOpen, &kernel.SyscallArgs{Path: "/dev/fb0"})
		if ret.Errno != kernel.OK {
			t.Errorf("open: %v", ret.Errno)
			return
		}
		info := th.Syscall(kernel.SysIoctl, &kernel.SyscallArgs{I: [6]uint64{ret.R0, FBIOGetVScreenInfo}})
		if info.R0 != 1280<<16|800 {
			t.Errorf("vscreeninfo = %#x", info.R0)
		}
		th.Syscall(kernel.SysIoctl, &kernel.SyscallArgs{I: [6]uint64{ret.R0, FBIOPanDisplay}})
		if fb.Flips() != 1 {
			t.Errorf("flips = %d", fb.Flips())
		}
	})
}
