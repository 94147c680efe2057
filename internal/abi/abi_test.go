package abi

import (
	"testing"
	"time"

	"repro/internal/ducttape"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/persona"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/xnu"
)

type env struct {
	s  *sim.Sim
	k  *kernel.Kernel
	fs *vfs.FS
}

func newEnv(t testing.TB, profile kernel.Profile) *env {
	t.Helper()
	s := sim.New()
	fs := vfs.New()
	k, err := kernel.New(s, kernel.Config{
		Profile: profile, Device: hw.Nexus7(), Root: fs, Registry: prog.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	dt := ducttape.NewEnv(k)
	if _, err := xnu.InstallIPC(k, dt); err != nil {
		t.Fatal(err)
	}
	if _, err := xnu.InstallPsynch(k, dt); err != nil {
		t.Fatal(err)
	}
	if profile != kernel.ProfileXNUNative {
		k.SetSyscallTable(persona.Android, kernel.LinuxTable(k.PersonaAware()))
	}
	k.SetSyscallTable(persona.IOS, XNUTable(k.PersonaAware()))
	k.RegisterBinFmt(&kernel.ELFLoader{})
	return &env{s: s, k: k, fs: fs}
}

// runIOS runs body as an iOS-persona process (ELF vehicle for simplicity;
// the persona is forced before body runs).
func (e *env) runIOS(t testing.TB, body func(*kernel.Thread)) {
	t.Helper()
	e.k.Registry().MustRegister("ios-body", func(c *prog.Call) uint64 {
		th := c.Ctx.(*kernel.Thread)
		th.Persona.Switch(persona.IOS)
		body(th)
		return 0
	})
	bin, err := prog.StaticELF("ios-body")
	if err != nil {
		t.Fatal(err)
	}
	e.fs.WriteFile("/bin/ios-body", bin)
	if _, err := e.k.StartProcess("/bin/ios-body", nil); err != nil {
		t.Fatal(err)
	}
	if err := e.s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestXNUSyscallNumbersDispatch(t *testing.T) {
	e := newEnv(t, kernel.ProfileCider)
	var pid, ppid uint64
	e.runIOS(t, func(th *kernel.Thread) {
		pid = th.Syscall(XNUGetpid, nil).R0
		ppid = th.Syscall(XNUGetppid, nil).R0
	})
	if pid == 0 {
		t.Fatal("getpid via XNU number failed")
	}
	if ppid != 0 {
		t.Fatalf("getppid = %d", ppid)
	}
}

func TestXNUTableUnknownSyscall(t *testing.T) {
	e := newEnv(t, kernel.ProfileCider)
	var errno kernel.Errno
	e.runIOS(t, func(th *kernel.Thread) {
		errno = th.Syscall(9999, nil).Errno
	})
	if errno != kernel.ENOSYS {
		t.Fatalf("errno = %v, want ENOSYS", errno)
	}
}

func TestXNUKillRenumbersSignal(t *testing.T) {
	e := newEnv(t, kernel.ProfileCider)
	delivered := -1
	e.runIOS(t, func(th *kernel.Thread) {
		// Install a handler for XNU SIGUSR1 (30) via XNU sigaction.
		th.Syscall(XNUSigaction, &kernel.SyscallArgs{
			I:   [6]uint64{30},
			Act: &kernel.SigAction{Handler: func(ht *kernel.Thread, sig int) { delivered = sig }},
		})
		pid := th.Syscall(XNUGetpid, nil).R0
		// Send XNU SIGUSR1 (30) to self.
		th.Syscall(XNUKill, &kernel.SyscallArgs{I: [6]uint64{pid, 30}})
	})
	// The iOS-persona handler must see the XNU number (30), not Linux's 10.
	if delivered != 30 {
		t.Fatalf("handler saw %d, want 30 (XNU SIGUSR1)", delivered)
	}
}

func TestIOSErrnoPostedInBSDNumbering(t *testing.T) {
	e := newEnv(t, kernel.ProfileCider)
	var tlsErrno int
	e.runIOS(t, func(th *kernel.Thread) {
		th.Syscall(9999, nil) // ENOSYS
		tlsErrno = th.Persona.CurrentTLS().Errno
	})
	if tlsErrno != 78 { // BSD ENOSYS
		t.Fatalf("TLS errno = %d, want 78 (BSD ENOSYS)", tlsErrno)
	}
}

func TestPosixSpawn(t *testing.T) {
	e := newEnv(t, kernel.ProfileCider)
	ran := false
	e.k.Registry().MustRegister("spawned", func(c *prog.Call) uint64 {
		ran = true
		return 0
	})
	bin, _ := prog.StaticELF("spawned")
	e.fs.WriteFile("/bin/spawned", bin)
	var status uint64
	e.runIOS(t, func(th *kernel.Thread) {
		ret := th.Syscall(XNUPosixSpawn, &kernel.SyscallArgs{Path: "/bin/spawned"})
		if ret.Errno != kernel.OK {
			t.Errorf("posix_spawn: %v", ret.Errno)
		}
		r := th.Syscall(XNUWait4, &kernel.SyscallArgs{I: [6]uint64{ret.R0}})
		status = r.R1
	})
	if !ran {
		t.Fatal("spawned binary did not run")
	}
	if status != 0 {
		t.Fatalf("status = %d", status)
	}
}

func TestPosixSpawnMissingBinary(t *testing.T) {
	e := newEnv(t, kernel.ProfileCider)
	var status uint64
	e.runIOS(t, func(th *kernel.Thread) {
		ret := th.Syscall(XNUPosixSpawn, &kernel.SyscallArgs{Path: "/bin/ghost"})
		r := th.Syscall(XNUWait4, &kernel.SyscallArgs{I: [6]uint64{ret.R0}})
		status = r.R1
	})
	if status != 127 {
		t.Fatalf("status = %d, want 127 (exec failure)", status)
	}
}

func TestMachMsgTrapSendReceive(t *testing.T) {
	e := newEnv(t, kernel.ProfileCider)
	var got string
	e.runIOS(t, func(th *kernel.Thread) {
		port := th.Syscall(MachReplyPort, nil).R0
		if port == 0 {
			t.Error("mach_reply_port returned MACH_PORT_NULL")
			return
		}
		send := &MsgCarrier{Msg: &xnu.Message{ID: 5, Body: []byte("via trap")}, Timeout: -1}
		SetCarrier(th, send)
		kr := th.Syscall(MachMsgTrap, &kernel.SyscallArgs{I: [6]uint64{port, MachSendMsg}}).R0
		if xnu.KernReturn(kr) != xnu.KernSuccess {
			t.Errorf("send kr = %#x", kr)
		}
		recv := &MsgCarrier{Timeout: -1}
		SetCarrier(th, recv)
		kr = th.Syscall(MachMsgTrap, &kernel.SyscallArgs{I: [6]uint64{port, MachRcvMsg}}).R0
		if xnu.KernReturn(kr) != xnu.KernSuccess {
			t.Errorf("recv kr = %#x", kr)
			return
		}
		got = string(recv.Result.Body)
	})
	if got != "via trap" {
		t.Fatalf("got %q", got)
	}
}

func TestSemaphoreTraps(t *testing.T) {
	e := newEnv(t, kernel.ProfileCider)
	ps, _ := xnu.PsynchFromKernel(e.k)
	var kr uint64
	e.runIOS(t, func(th *kernel.Thread) {
		ps.SemInit(th, 0x50, 1)
		kr = th.Syscall(SemaphoreWaitTrap, &kernel.SyscallArgs{I: [6]uint64{0x50}}).R0
		th.Syscall(SemaphoreSignalTrap, &kernel.SyscallArgs{I: [6]uint64{0x50}})
	})
	if xnu.KernReturn(kr) != xnu.KernSuccess {
		t.Fatalf("kr = %#x", kr)
	}
}

func TestPsynchSyscalls(t *testing.T) {
	e := newEnv(t, kernel.ProfileCider)
	var wait, drop uint64
	e.runIOS(t, func(th *kernel.Thread) {
		wait = th.Syscall(XNUPsynchMutexWait, &kernel.SyscallArgs{I: [6]uint64{0x77}}).R0
		drop = th.Syscall(XNUPsynchMutexDrop, &kernel.SyscallArgs{I: [6]uint64{0x77}}).R0
	})
	if xnu.KernReturn(wait) != xnu.KernSuccess || xnu.KernReturn(drop) != xnu.KernSuccess {
		t.Fatalf("wait/drop = %#x/%#x", wait, drop)
	}
}

func TestSetPersonaFromIOSTable(t *testing.T) {
	e := newEnv(t, kernel.ProfileCider)
	var now persona.Kind
	e.runIOS(t, func(th *kernel.Thread) {
		th.Syscall(SetPersonaTrap, &kernel.SyscallArgs{I: [6]uint64{uint64(persona.Android)}})
		now = th.Persona.Current()
	})
	if now != persona.Android {
		t.Fatalf("persona = %v, want android", now)
	}
}

func TestNullSyscallIOSPersonaOverhead(t *testing.T) {
	// Fig. 5: running the iOS binary costs ~40% over vanilla Android on a
	// null syscall; the Android persona on Cider costs ~8.5%. The full
	// four-configuration comparison lives in internal/lmbench; here we
	// verify the iOS persona path carries the translation premium.
	e := newEnv(t, kernel.ProfileCider)
	var androidCost, iosCost time.Duration
	e.k.Registry().MustRegister("cmp", func(c *prog.Call) uint64 {
		th := c.Ctx.(*kernel.Thread)
		start := th.Now()
		for i := 0; i < 100; i++ {
			th.Syscall(kernel.SysGetppid, nil)
		}
		androidCost = th.Now() - start
		th.Persona.Switch(persona.IOS)
		start = th.Now()
		for i := 0; i < 100; i++ {
			th.Syscall(XNUGetppid, nil)
		}
		iosCost = th.Now() - start
		return 0
	})
	bin, _ := prog.StaticELF("cmp")
	e.fs.WriteFile("/bin/cmp", bin)
	if _, err := e.k.StartProcess("/bin/cmp", nil); err != nil {
		t.Fatal(err)
	}
	if err := e.s.Run(); err != nil {
		t.Fatal(err)
	}
	ratio := float64(iosCost) / float64(androidCost)
	if ratio < 1.15 || ratio > 1.45 {
		t.Fatalf("ios/android syscall cost = %.3f, want ~1.29 (40%%/8.5%% over vanilla)", ratio)
	}
}

// TestNativeXNUTableHasNoTranslationCost prices one iOS null syscall on
// each kernel that serves the XNU ABI. The translation charges come from
// the kernel's cost table at trap time: zero on the iPad, where the ABI is
// native, and the trap-demux plus argument and return translation on
// Cider, on top of its persona check.
func TestNativeXNUTableHasNoTranslationCost(t *testing.T) {
	nullSyscall := func(e *env) time.Duration {
		var d time.Duration
		e.runIOS(t, func(th *kernel.Thread) {
			start := th.Now()
			th.Syscall(XNUGetppid, nil)
			d = th.Now() - start
		})
		return d
	}

	ipad := newEnv(t, kernel.ProfileXNUNative)
	c := ipad.k.Costs()
	if got, want := nullSyscall(ipad), c.SyscallEntry+c.SyscallExit; got != want {
		t.Errorf("iPad null syscall = %v, want entry+exit = %v", got, want)
	}
	if ipad.k.SyscallTableFor(persona.Android) != nil {
		t.Error("XNU-native kernel must not expose a Linux ABI")
	}

	cider := newEnv(t, kernel.ProfileCider)
	c = cider.k.Costs()
	xlate := c.XNUTrapDemux + c.XNUArgTranslate + c.XNURetTranslate
	if xlate == 0 {
		t.Fatal("Cider cost table has no XNU translation cost")
	}
	want := c.SyscallEntry + c.PersonaCheck + c.SyscallExit + xlate
	if got := nullSyscall(cider); got != want {
		t.Errorf("Cider iOS null syscall = %v, want entry+check+exit+translation = %v", got, want)
	}
}

// TestSetPersonaPricedByEntryTable pins the translation charge to the
// table a trap entered by, not the persona it leaves in: set_persona
// switches persona in the middle of its own call, so a diplomat's
// iOS-to-Android hop pays the XNU return translation and the hop back
// pays none.
func TestSetPersonaPricedByEntryTable(t *testing.T) {
	e := newEnv(t, kernel.ProfileCider)
	c := e.k.Costs()
	var toAndroid, toIOS time.Duration
	e.runIOS(t, func(th *kernel.Thread) {
		start := th.Now()
		th.SetPersona(SetPersonaTrap, persona.Android)
		toAndroid = th.Now() - start
		start = th.Now()
		th.SetPersona(kernel.SysSetPersona, persona.IOS)
		toIOS = th.Now() - start
	})
	base := c.SyscallEntry + c.PersonaCheck + c.SetPersonaCost + c.SyscallExit
	if want := base + c.XNUTrapDemux + c.XNUArgTranslate + c.XNURetTranslate; toAndroid != want {
		t.Errorf("set_persona(android) from the XNU table = %v, want %v", toAndroid, want)
	}
	if toIOS != base {
		t.Errorf("set_persona(ios) from the Linux table = %v, want %v", toIOS, base)
	}
}

func TestTrapClassConstants(t *testing.T) {
	// The four XNU trap entry paths (Section 4.1).
	classes := []TrapClass{TrapUnix, TrapMach, TrapMachDep, TrapDiag}
	if len(classes) != 4 {
		t.Fatal("XNU has exactly four trap classes")
	}
}
