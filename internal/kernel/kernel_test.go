package kernel

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/elfx"
	"repro/internal/hw"
	"repro/internal/persona"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// testEnv bundles a booted kernel for tests.
type testEnv struct {
	sim *sim.Sim
	k   *Kernel
	fs  *vfs.FS
	reg *prog.Registry
}

func newEnv(t *testing.T, profile Profile) *testEnv {
	t.Helper()
	s := sim.New()
	fs := vfs.New()
	reg := prog.NewRegistry()
	k, err := New(s, Config{Profile: profile, Device: hw.Nexus7(), Root: fs, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	k.SetSyscallTable(persona.Android, LinuxTable(k.PersonaAware()))
	k.RegisterBinFmt(&ELFLoader{})
	if err := k.AddDevice(NullDevice{}); err != nil {
		t.Fatal(err)
	}
	if err := k.AddDevice(ZeroDevice{}); err != nil {
		t.Fatal(err)
	}
	return &testEnv{sim: s, k: k, fs: fs, reg: reg}
}

// install builds a static ELF executable at path whose body is fn.
func (e *testEnv) install(t *testing.T, path, key string, fn prog.Func) {
	t.Helper()
	f := &elfx.File{
		Type: elfx.TypeExec,
		Segments: []*elfx.Segment{
			{Flags: elfx.FlagR | elfx.FlagX, Data: prog.TextPayload(key)},
		},
	}
	b, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.fs.WriteFile(path, b); err != nil {
		t.Fatal(err)
	}
	e.reg.MustRegister(key, fn)
}

// run starts a process from path and drives the simulation to completion.
func (e *testEnv) run(t *testing.T, path string, argv []string) *Task {
	t.Helper()
	tk, err := e.k.StartProcess(path, argv)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.sim.Run(); err != nil {
		t.Fatal(err)
	}
	return tk
}

func TestStartProcessRunsEntry(t *testing.T) {
	e := newEnv(t, ProfileLinuxVanilla)
	ran := false
	e.install(t, "/bin/hello", "hello", func(c *prog.Call) uint64 {
		ran = true
		return 0
	})
	e.run(t, "/bin/hello", nil)
	if !ran {
		t.Fatal("entry did not run")
	}
}

func TestExecMissingBinary(t *testing.T) {
	e := newEnv(t, ProfileLinuxVanilla)
	tk, err := e.k.StartProcess("/bin/nope", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.sim.Run(); err != nil {
		t.Fatal(err)
	}
	_ = tk // process exits with status 255; nothing to assert beyond no hang
}

func TestNonELFBinaryRejected(t *testing.T) {
	e := newEnv(t, ProfileLinuxVanilla)
	e.fs.WriteFile("/bin/junk", []byte("#!not a real format"))
	var status uint64 = 12345
	e.install(t, "/bin/runner", "runner", func(c *prog.Call) uint64 {
		th := c.Ctx.(*Thread)
		ret := th.Syscall(SysFork, &SyscallArgs{ChildFn: func(ct *Thread) {
			ct.execInternal("/bin/junk", nil)
			ct.exitTask(42) // exec failed; report
		}})
		r2 := th.Syscall(SysWait4, &SyscallArgs{I: [6]uint64{ret.R0}})
		status = r2.R1
		return 0
	})
	e.run(t, "/bin/runner", nil)
	if status != 42 {
		t.Fatalf("child status = %d, want 42 (exec must fail)", status)
	}
}

func TestGetpidGetppid(t *testing.T) {
	e := newEnv(t, ProfileLinuxVanilla)
	var pid, ppid uint64
	e.install(t, "/bin/p", "p", func(c *prog.Call) uint64 {
		th := c.Ctx.(*Thread)
		pid = th.Syscall(SysGetpid, nil).R0
		ppid = th.Syscall(SysGetppid, nil).R0
		return 0
	})
	tk := e.run(t, "/bin/p", nil)
	if int(pid) != tk.PID() {
		t.Fatalf("pid = %d, want %d", pid, tk.PID())
	}
	if ppid != 0 {
		t.Fatalf("ppid = %d, want 0 (init)", ppid)
	}
}

func TestDevZeroDevNull(t *testing.T) {
	e := newEnv(t, ProfileLinuxVanilla)
	var got []byte
	var wrote uint64
	e.install(t, "/bin/devs", "devs", func(c *prog.Call) uint64 {
		th := c.Ctx.(*Thread)
		zfd := th.Syscall(SysOpen, &SyscallArgs{Path: "/dev/zero"})
		buf := []byte{9, 9, 9, 9}
		th.Syscall(SysRead, &SyscallArgs{I: [6]uint64{zfd.R0}, Buf: buf})
		got = buf
		nfd := th.Syscall(SysOpen, &SyscallArgs{Path: "/dev/null"})
		w := th.Syscall(SysWrite, &SyscallArgs{I: [6]uint64{nfd.R0}, Buf: []byte("discard")})
		wrote = w.R0
		th.Syscall(SysClose, &SyscallArgs{I: [6]uint64{zfd.R0}})
		th.Syscall(SysClose, &SyscallArgs{I: [6]uint64{nfd.R0}})
		return 0
	})
	e.run(t, "/bin/devs", nil)
	for _, b := range got {
		if b != 0 {
			t.Fatalf("read from /dev/zero = %v", got)
		}
	}
	if wrote != 7 {
		t.Fatalf("write to /dev/null = %d", wrote)
	}
}

func TestFileCreateWriteReadUnlink(t *testing.T) {
	e := newEnv(t, ProfileLinuxVanilla)
	var readBack []byte
	var unlinkErr Errno
	e.install(t, "/bin/f", "f", func(c *prog.Call) uint64 {
		th := c.Ctx.(*Thread)
		fd := th.Syscall(SysCreat, &SyscallArgs{Path: "/tmp/x"})
		if fd.Errno != OK {
			t.Errorf("creat: %v", fd.Errno)
		}
		th.Syscall(SysWrite, &SyscallArgs{I: [6]uint64{fd.R0}, Buf: []byte("payload")})
		th.Syscall(SysClose, &SyscallArgs{I: [6]uint64{fd.R0}})
		fd2 := th.Syscall(SysOpen, &SyscallArgs{Path: "/tmp/x"})
		buf := make([]byte, 16)
		n := th.Syscall(SysRead, &SyscallArgs{I: [6]uint64{fd2.R0}, Buf: buf})
		readBack = buf[:n.R0]
		th.Syscall(SysClose, &SyscallArgs{I: [6]uint64{fd2.R0}})
		unlinkErr = th.Syscall(SysUnlink, &SyscallArgs{Path: "/tmp/x"}).Errno
		return 0
	})
	e.fs.MkdirAll("/tmp")
	e.run(t, "/bin/f", nil)
	if string(readBack) != "payload" {
		t.Fatalf("read back %q", readBack)
	}
	if unlinkErr != OK {
		t.Fatalf("unlink: %v", unlinkErr)
	}
}

func TestForkWaitStatus(t *testing.T) {
	e := newEnv(t, ProfileLinuxVanilla)
	var waited, status uint64
	var childPID uint64
	e.install(t, "/bin/forker", "forker", func(c *prog.Call) uint64 {
		th := c.Ctx.(*Thread)
		ret := th.Syscall(SysFork, &SyscallArgs{ChildFn: func(ct *Thread) {
			ct.Syscall(SysExit, &SyscallArgs{I: [6]uint64{7}})
		}})
		childPID = ret.R0
		r := th.Syscall(SysWait4, &SyscallArgs{I: [6]uint64{ret.R0}})
		waited, status = r.R0, r.R1
		return 0
	})
	e.run(t, "/bin/forker", nil)
	if waited != childPID {
		t.Fatalf("wait returned pid %d, want %d", waited, childPID)
	}
	if status != 7 {
		t.Fatalf("status = %d, want 7", status)
	}
}

func TestWaitNoChildren(t *testing.T) {
	e := newEnv(t, ProfileLinuxVanilla)
	var errno Errno
	e.install(t, "/bin/w", "w", func(c *prog.Call) uint64 {
		th := c.Ctx.(*Thread)
		errno = th.Syscall(SysWait4, &SyscallArgs{}).Errno
		return 0
	})
	e.run(t, "/bin/w", nil)
	if errno != ECHILD {
		t.Fatalf("errno = %v, want ECHILD", errno)
	}
}

func TestForkCopiesMemory(t *testing.T) {
	e := newEnv(t, ProfileLinuxVanilla)
	parentSees := ""
	e.install(t, "/bin/m", "m", func(c *prog.Call) uint64 {
		th := c.Ctx.(*Thread)
		r, _ := th.Task().Mem().Map(0, 4096, 3, "shared-test", false)
		th.Task().Mem().WriteAt(r.Base, []byte("parent"))
		ret := th.Syscall(SysFork, &SyscallArgs{ChildFn: func(ct *Thread) {
			ct.Task().Mem().WriteAt(r.Base, []byte("child!"))
			ct.Syscall(SysExit, nil)
		}})
		th.Syscall(SysWait4, &SyscallArgs{I: [6]uint64{ret.R0}})
		buf := make([]byte, 6)
		th.Task().Mem().ReadAt(r.Base, buf)
		parentSees = string(buf)
		return 0
	})
	e.run(t, "/bin/m", nil)
	if parentSees != "parent" {
		t.Fatalf("parent sees %q after child write (COW broken)", parentSees)
	}
}

func TestPipeTransfer(t *testing.T) {
	e := newEnv(t, ProfileLinuxVanilla)
	var got string
	e.install(t, "/bin/pipe", "pipe", func(c *prog.Call) uint64 {
		th := c.Ctx.(*Thread)
		p := th.Syscall(SysPipe, nil)
		rfd, wfd := p.R0, p.R1
		ret := th.Syscall(SysFork, &SyscallArgs{ChildFn: func(ct *Thread) {
			ct.Syscall(SysWrite, &SyscallArgs{I: [6]uint64{wfd}, Buf: []byte("hi kid")})
			ct.Syscall(SysExit, nil)
		}})
		buf := make([]byte, 16)
		n := th.Syscall(SysRead, &SyscallArgs{I: [6]uint64{rfd}, Buf: buf})
		got = string(buf[:n.R0])
		th.Syscall(SysWait4, &SyscallArgs{I: [6]uint64{ret.R0}})
		return 0
	})
	e.run(t, "/bin/pipe", nil)
	if got != "hi kid" {
		t.Fatalf("got %q", got)
	}
}

func TestPipeEOFOnWriterClose(t *testing.T) {
	e := newEnv(t, ProfileLinuxVanilla)
	var n uint64 = 99
	e.install(t, "/bin/eof", "eof", func(c *prog.Call) uint64 {
		th := c.Ctx.(*Thread)
		p := th.Syscall(SysPipe, nil)
		th.Syscall(SysClose, &SyscallArgs{I: [6]uint64{p.R1}}) // close write end
		buf := make([]byte, 4)
		n = th.Syscall(SysRead, &SyscallArgs{I: [6]uint64{p.R0}, Buf: buf}).R0
		return 0
	})
	e.run(t, "/bin/eof", nil)
	if n != 0 {
		t.Fatalf("read = %d, want 0 (EOF)", n)
	}
}

func TestSocketpairRoundTrip(t *testing.T) {
	e := newEnv(t, ProfileLinuxVanilla)
	var got string
	e.install(t, "/bin/sock", "sock", func(c *prog.Call) uint64 {
		th := c.Ctx.(*Thread)
		sp := th.Syscall(SysSocketpair, nil)
		a, b := sp.R0, sp.R1
		ret := th.Syscall(SysFork, &SyscallArgs{ChildFn: func(ct *Thread) {
			buf := make([]byte, 16)
			n := ct.Syscall(SysRead, &SyscallArgs{I: [6]uint64{b}, Buf: buf})
			ct.Syscall(SysWrite, &SyscallArgs{I: [6]uint64{b}, Buf: append([]byte("re:"), buf[:n.R0]...)})
			ct.Syscall(SysExit, nil)
		}})
		th.Syscall(SysWrite, &SyscallArgs{I: [6]uint64{a}, Buf: []byte("ping")})
		buf := make([]byte, 16)
		n := th.Syscall(SysRead, &SyscallArgs{I: [6]uint64{a}, Buf: buf})
		got = string(buf[:n.R0])
		th.Syscall(SysWait4, &SyscallArgs{I: [6]uint64{ret.R0}})
		return 0
	})
	e.run(t, "/bin/sock", nil)
	if got != "re:ping" {
		t.Fatalf("got %q", got)
	}
}

func TestSelectReadiness(t *testing.T) {
	e := newEnv(t, ProfileLinuxVanilla)
	var readyBefore, readyAfter int
	e.install(t, "/bin/sel", "sel", func(c *prog.Call) uint64 {
		th := c.Ctx.(*Thread)
		p := th.Syscall(SysPipe, nil)
		// Poll: empty pipe is not readable.
		res := th.Syscall(SysSelect, &SyscallArgs{Select: &SelectRequest{
			ReadFDs: []int{int(p.R0)}, Timeout: 0,
		}})
		readyBefore = int(res.R0)
		th.Syscall(SysWrite, &SyscallArgs{I: [6]uint64{p.R1}, Buf: []byte("x")})
		res = th.Syscall(SysSelect, &SyscallArgs{Select: &SelectRequest{
			ReadFDs: []int{int(p.R0)}, Timeout: 0,
		}})
		readyAfter = int(res.R0)
		return 0
	})
	e.run(t, "/bin/sel", nil)
	if readyBefore != 0 || readyAfter != 1 {
		t.Fatalf("ready before/after = %d/%d, want 0/1", readyBefore, readyAfter)
	}
}

func TestSelectBlocksUntilReady(t *testing.T) {
	e := newEnv(t, ProfileLinuxVanilla)
	var woke time.Duration
	e.install(t, "/bin/selb", "selb", func(c *prog.Call) uint64 {
		th := c.Ctx.(*Thread)
		p := th.Syscall(SysPipe, nil)
		th.Syscall(SysFork, &SyscallArgs{ChildFn: func(ct *Thread) {
			ct.Charge(5 * time.Millisecond)
			ct.Syscall(SysWrite, &SyscallArgs{I: [6]uint64{p.R1}, Buf: []byte("go")})
			ct.Syscall(SysExit, nil)
		}})
		th.Syscall(SysSelect, &SyscallArgs{Select: &SelectRequest{
			ReadFDs: []int{int(p.R0)}, Timeout: -1,
		}})
		woke = th.Now()
		return 0
	})
	e.run(t, "/bin/selb", nil)
	if woke < 5*time.Millisecond {
		t.Fatalf("select returned at %v, before writer ran", woke)
	}
}

func TestSelectMaxFDs(t *testing.T) {
	e := newEnv(t, ProfileLinuxVanilla)
	e.k.Costs().SelectMaxFDs = 100
	var errno Errno
	e.install(t, "/bin/selmax", "selmax", func(c *prog.Call) uint64 {
		th := c.Ctx.(*Thread)
		fds := make([]int, 150)
		for i := range fds {
			fd := th.Syscall(SysOpen, &SyscallArgs{Path: "/dev/zero"})
			fds[i] = int(fd.R0)
		}
		errno = th.Syscall(SysSelect, &SyscallArgs{Select: &SelectRequest{
			ReadFDs: fds, Timeout: 0,
		}}).Errno
		return 0
	})
	e.run(t, "/bin/selmax", nil)
	if errno != EINVAL {
		t.Fatalf("errno = %v, want EINVAL (iPad select limit)", errno)
	}
}

func TestSignalHandlerRuns(t *testing.T) {
	e := newEnv(t, ProfileLinuxVanilla)
	delivered := -1
	e.install(t, "/bin/sig", "sig", func(c *prog.Call) uint64 {
		th := c.Ctx.(*Thread)
		th.Syscall(SysRtSigaction, &SyscallArgs{
			I:   [6]uint64{SIGUSR1},
			Act: &SigAction{Handler: func(ht *Thread, sig int) { delivered = sig }},
		})
		pid := th.Syscall(SysGetpid, nil).R0
		th.Syscall(SysKill, &SyscallArgs{I: [6]uint64{pid, SIGUSR1}})
		return 0
	})
	e.run(t, "/bin/sig", nil)
	if delivered != SIGUSR1 {
		t.Fatalf("delivered = %d, want %d", delivered, SIGUSR1)
	}
}

func TestSignalDefaultTerminates(t *testing.T) {
	e := newEnv(t, ProfileLinuxVanilla)
	var status uint64
	e.install(t, "/bin/die", "die", func(c *prog.Call) uint64 {
		th := c.Ctx.(*Thread)
		ret := th.Syscall(SysFork, &SyscallArgs{ChildFn: func(ct *Thread) {
			pid := ct.Syscall(SysGetpid, nil).R0
			ct.Syscall(SysKill, &SyscallArgs{I: [6]uint64{pid, SIGTERM}})
			ct.Syscall(SysExit, &SyscallArgs{I: [6]uint64{0}}) // unreachable
		}})
		r := th.Syscall(SysWait4, &SyscallArgs{I: [6]uint64{ret.R0}})
		status = r.R1
		return 0
	})
	e.run(t, "/bin/die", nil)
	if status != 128+SIGTERM {
		t.Fatalf("status = %d, want %d", status, 128+SIGTERM)
	}
}

func TestSigactionRejectsKillStop(t *testing.T) {
	e := newEnv(t, ProfileLinuxVanilla)
	var e1, e2 Errno
	e.install(t, "/bin/sa", "sa", func(c *prog.Call) uint64 {
		th := c.Ctx.(*Thread)
		act := &SigAction{Handler: func(*Thread, int) {}}
		e1 = th.Syscall(SysRtSigaction, &SyscallArgs{I: [6]uint64{SIGKILL}, Act: act}).Errno
		e2 = th.Syscall(SysRtSigaction, &SyscallArgs{I: [6]uint64{SIGSTOP}, Act: act}).Errno
		return 0
	})
	e.run(t, "/bin/sa", nil)
	if e1 != EINVAL || e2 != EINVAL {
		t.Fatalf("errnos = %v/%v, want EINVAL", e1, e2)
	}
}

func TestCrossProcessKill(t *testing.T) {
	e := newEnv(t, ProfileLinuxVanilla)
	var status uint64
	e.install(t, "/bin/killer", "killer", func(c *prog.Call) uint64 {
		th := c.Ctx.(*Thread)
		ret := th.Syscall(SysFork, &SyscallArgs{ChildFn: func(ct *Thread) {
			// Block forever in a read; the signal must interrupt and kill.
			p := ct.Syscall(SysPipe, nil)
			buf := make([]byte, 1)
			ct.Syscall(SysRead, &SyscallArgs{I: [6]uint64{p.R0}, Buf: buf})
			ct.Syscall(SysExit, &SyscallArgs{I: [6]uint64{0}})
		}})
		th.Charge(time.Millisecond)
		th.Syscall(SysKill, &SyscallArgs{I: [6]uint64{ret.R0, SIGTERM}})
		r := th.Syscall(SysWait4, &SyscallArgs{I: [6]uint64{ret.R0}})
		status = r.R1
		return 0
	})
	e.run(t, "/bin/killer", nil)
	if status != 128+SIGTERM {
		t.Fatalf("status = %d, want %d", status, 128+SIGTERM)
	}
}

func TestPersonaSwitchSyscall(t *testing.T) {
	e := newEnv(t, ProfileCider)
	var before, after persona.Kind
	e.install(t, "/bin/persona", "persona", func(c *prog.Call) uint64 {
		th := c.Ctx.(*Thread)
		before = th.Persona.Current()
		th.Syscall(SysSetPersona, &SyscallArgs{I: [6]uint64{uint64(persona.IOS)}})
		after = th.Persona.Current()
		return 0
	})
	e.run(t, "/bin/persona", nil)
	if before != persona.Android || after != persona.IOS {
		t.Fatalf("persona %v -> %v, want android -> ios", before, after)
	}
}

func TestSetPersonaUnavailableOnVanilla(t *testing.T) {
	e := newEnv(t, ProfileLinuxVanilla)
	var errno Errno
	e.install(t, "/bin/persona", "persona", func(c *prog.Call) uint64 {
		th := c.Ctx.(*Thread)
		errno = th.Syscall(SysSetPersona, &SyscallArgs{I: [6]uint64{1}}).Errno
		return 0
	})
	e.run(t, "/bin/persona", nil)
	if errno != ENOSYS {
		t.Fatalf("errno = %v, want ENOSYS on vanilla kernel", errno)
	}
}

func TestNullSyscallOverheadRatio(t *testing.T) {
	// The Cider persona check must cost ~8.5% of a null syscall (§6.2).
	measure := func(profile Profile) time.Duration {
		e := newEnv(t, profile)
		var elapsed time.Duration
		e.install(t, "/bin/null", "null", func(c *prog.Call) uint64 {
			th := c.Ctx.(*Thread)
			start := th.Now()
			const iters = 1000
			for i := 0; i < iters; i++ {
				th.Syscall(SysGetppid, nil)
			}
			elapsed = (th.Now() - start) / iters
			return 0
		})
		e.run(t, "/bin/null", nil)
		return elapsed
	}
	vanilla := measure(ProfileLinuxVanilla)
	cider := measure(ProfileCider)
	ratio := float64(cider) / float64(vanilla)
	if ratio < 1.05 || ratio > 1.13 {
		t.Fatalf("cider/vanilla null syscall = %.3f, want ~1.085", ratio)
	}
}

func TestForkChargesPTECopies(t *testing.T) {
	e := newEnv(t, ProfileLinuxVanilla)
	var small, large time.Duration
	e.install(t, "/bin/ptes", "ptes", func(c *prog.Call) uint64 {
		th := c.Ctx.(*Thread)
		timeFork := func() time.Duration {
			start := th.Now()
			ret := th.Syscall(SysFork, &SyscallArgs{ChildFn: func(ct *Thread) {
				ct.Syscall(SysExit, nil)
			}})
			end := th.Now()
			th.Syscall(SysWait4, &SyscallArgs{I: [6]uint64{ret.R0}})
			return end - start
		}
		small = timeFork()
		// Map 90 MB (the iOS dylib footprint) and fork again.
		th.Task().Mem().Map(0, 90<<20, 3, "dylibs", false)
		large = timeFork()
		return 0
	})
	e.run(t, "/bin/ptes", nil)
	extra := large - small
	// ~23k PTEs at ~43ns each ≈ 1ms (§6.2).
	if extra < 800*time.Microsecond || extra > 1300*time.Microsecond {
		t.Fatalf("90MB fork PTE cost = %v, want ≈1ms", extra)
	}
}

func TestDeviceAddHook(t *testing.T) {
	e := newEnv(t, ProfileCider)
	var seen []string
	e.k.OnDeviceAdd(func(d Device) { seen = append(seen, d.DevName()) })
	// Hook fires for pre-existing devices (null, zero) immediately.
	if len(seen) != 2 {
		t.Fatalf("hook saw %v, want 2 existing devices", seen)
	}
	fb := &testFBDevice{}
	if err := e.k.AddDevice(fb); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || seen[2] != "fb0" {
		t.Fatalf("hook saw %v after AddDevice", seen)
	}
	// /dev node exists.
	if _, err := e.fs.Lookup("/dev/fb0"); err != nil {
		t.Fatal("no /dev/fb0 node created")
	}
	// Duplicate registration rejected.
	if err := e.k.AddDevice(fb); err == nil {
		t.Fatal("duplicate device registration should fail")
	}
}

// TestDeviceAddHookReplaySorted pins the replay order of OnDeviceAdd: a
// hook installed after devices exist sees them in sorted name order, on
// every install. I/O Kit numbers its registry entries in that order, so
// a map-order replay would make registry IDs differ from boot to boot.
func TestDeviceAddHookReplaySorted(t *testing.T) {
	e := newEnv(t, ProfileCider)
	for _, name := range []string{"tty0", "fb0", "input0", "camera0", "gps0", "audio0", "mmc0"} {
		if err := e.k.AddDevice(namedDevice(name)); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"audio0", "camera0", "fb0", "gps0", "input0", "mmc0", "null", "tty0", "zero"}
	for i := 0; i < 100; i++ {
		var seen []string
		e.k.OnDeviceAdd(func(d Device) { seen = append(seen, d.DevName()) })
		if fmt.Sprint(seen) != fmt.Sprint(want) {
			t.Fatalf("install %d: hook replayed %v, want %v", i, seen, want)
		}
	}
}

type namedDevice string

func (d namedDevice) DevName() string          { return string(d) }
func (namedDevice) Open(*Thread) (File, Errno) { return nullFile{}, OK }

type testFBDevice struct{}

func (*testFBDevice) DevName() string            { return "fb0" }
func (*testFBDevice) Open(*Thread) (File, Errno) { return nullFile{}, OK }

func TestFDTableSemantics(t *testing.T) {
	ft := NewFDTable()
	fd1, errno := ft.Alloc(nullFile{})
	if errno != OK || fd1 != 0 {
		t.Fatalf("first fd = %d (%v), want 0", fd1, errno)
	}
	fd2, _ := ft.Alloc(nullFile{})
	if fd2 != 1 {
		t.Fatalf("second fd = %d, want 1", fd2)
	}
	if errno := ft.Close(nil, fd1); errno != OK {
		t.Fatal(errno)
	}
	fd3, _ := ft.Alloc(nullFile{})
	if fd3 != 0 {
		t.Fatalf("lowest-free not reused: got %d", fd3)
	}
	if _, errno := ft.Get(99); errno != EBADF {
		t.Fatalf("Get(99) = %v, want EBADF", errno)
	}
	dup, errno := ft.Dup(fd2)
	if errno != OK || dup == fd2 {
		t.Fatalf("dup = %d (%v)", dup, errno)
	}
	if ft.Count() != 3 {
		t.Fatalf("count = %d, want 3", ft.Count())
	}
}

func TestErrnoTranslation(t *testing.T) {
	if ErrnoToXNU(EAGAIN) != 35 {
		t.Fatalf("EAGAIN -> %d, want 35 (BSD)", ErrnoToXNU(EAGAIN))
	}
	if ErrnoFromXNU(35) != EAGAIN {
		t.Fatal("BSD 35 -> EAGAIN inverse broken")
	}
	if ErrnoToXNU(ENOENT) != int(ENOENT) {
		t.Fatal("shared numbers must pass through")
	}
}

func TestSignalTranslation(t *testing.T) {
	cases := map[int]int{SIGUSR1: 30, SIGUSR2: 31, SIGCHLD: 20, SIGBUS: 10, SIGTERM: 15}
	for lin, xnu := range cases {
		if got := SignalToXNU(lin); got != xnu {
			t.Errorf("SignalToXNU(%d) = %d, want %d", lin, got, xnu)
		}
		if got := SignalFromXNU(xnu); got != lin {
			t.Errorf("SignalFromXNU(%d) = %d, want %d", xnu, got, lin)
		}
	}
}

func TestSpawnThreadSharesTask(t *testing.T) {
	e := newEnv(t, ProfileCider)
	var mainPID, threadPID uint64
	e.install(t, "/bin/thr", "thr", func(c *prog.Call) uint64 {
		th := c.Ctx.(*Thread)
		mainPID = th.Syscall(SysGetpid, nil).R0
		done := sim.NewWaitQueue("join")
		nt := th.SpawnThread("worker", func(wt *Thread) {
			threadPID = wt.Syscall(SysGetpid, nil).R0
			done.WakeAll(wt.Proc(), sim.WakeNormal)
		})
		_ = nt
		done.Wait(th.Proc())
		return 0
	})
	e.run(t, "/bin/thr", nil)
	if mainPID != threadPID {
		t.Fatalf("thread pid %d != main pid %d", threadPID, mainPID)
	}
}

func TestDupSharesDescription(t *testing.T) {
	e := newEnv(t, ProfileLinuxVanilla)
	var got string
	e.fs.MkdirAll("/tmp")
	e.install(t, "/bin/dup", "dup", func(c *prog.Call) uint64 {
		th := c.Ctx.(*Thread)
		fd := th.Syscall(SysCreat, &SyscallArgs{Path: "/tmp/dup.f"})
		dup := th.Syscall(SysDup, &SyscallArgs{I: [6]uint64{fd.R0}})
		// Writes through both descriptors share one offset.
		th.Syscall(SysWrite, &SyscallArgs{I: [6]uint64{fd.R0}, Buf: []byte("ab")})
		th.Syscall(SysWrite, &SyscallArgs{I: [6]uint64{dup.R0}, Buf: []byte("cd")})
		th.Syscall(SysClose, &SyscallArgs{I: [6]uint64{fd.R0}})
		th.Syscall(SysClose, &SyscallArgs{I: [6]uint64{dup.R0}})
		fd2 := th.Syscall(SysOpen, &SyscallArgs{Path: "/tmp/dup.f"})
		buf := make([]byte, 8)
		n := th.Syscall(SysRead, &SyscallArgs{I: [6]uint64{fd2.R0}, Buf: buf})
		got = string(buf[:n.R0])
		return 0
	})
	e.run(t, "/bin/dup", nil)
	if got != "abcd" {
		t.Fatalf("file contents %q, want abcd (shared offset)", got)
	}
}

func TestWriteToClosedPipeEPIPE(t *testing.T) {
	e := newEnv(t, ProfileLinuxVanilla)
	var errno Errno
	sigpiped := false
	e.install(t, "/bin/epipe", "epipe", func(c *prog.Call) uint64 {
		th := c.Ctx.(*Thread)
		th.Syscall(SysRtSigaction, &SyscallArgs{
			I:   [6]uint64{SIGPIPE},
			Act: &SigAction{Handler: func(*Thread, int) { sigpiped = true }},
		})
		p := th.Syscall(SysPipe, nil)
		th.Syscall(SysClose, &SyscallArgs{I: [6]uint64{p.R0}}) // close read end
		errno = th.Syscall(SysWrite, &SyscallArgs{I: [6]uint64{p.R1}, Buf: []byte("x")}).Errno
		return 0
	})
	e.run(t, "/bin/epipe", nil)
	if errno != EPIPE {
		t.Fatalf("errno = %v, want EPIPE", errno)
	}
	if !sigpiped {
		t.Fatal("SIGPIPE not delivered")
	}
}

func TestSelectTimeoutElapses(t *testing.T) {
	e := newEnv(t, ProfileLinuxVanilla)
	var waited time.Duration
	var ready int
	e.install(t, "/bin/selt", "selt", func(c *prog.Call) uint64 {
		th := c.Ctx.(*Thread)
		p := th.Syscall(SysPipe, nil)
		start := th.Now()
		res := th.Syscall(SysSelect, &SyscallArgs{Select: &SelectRequest{
			ReadFDs: []int{int(p.R0)}, Timeout: 25 * time.Millisecond,
		}})
		waited = th.Now() - start
		ready = int(res.R0)
		return 0
	})
	e.run(t, "/bin/selt", nil)
	if ready != 0 {
		t.Fatalf("ready = %d", ready)
	}
	if waited < 25*time.Millisecond || waited > 27*time.Millisecond {
		t.Fatalf("waited %v, want ≈25ms", waited)
	}
}

func TestSelectBadFD(t *testing.T) {
	e := newEnv(t, ProfileLinuxVanilla)
	var errno Errno
	e.install(t, "/bin/selbad", "selbad", func(c *prog.Call) uint64 {
		th := c.Ctx.(*Thread)
		errno = th.Syscall(SysSelect, &SyscallArgs{Select: &SelectRequest{
			ReadFDs: []int{423}, Timeout: 0,
		}}).Errno
		return 0
	})
	e.run(t, "/bin/selbad", nil)
	if errno != EBADF {
		t.Fatalf("errno = %v, want EBADF", errno)
	}
}

func TestCostProfilesDiffer(t *testing.T) {
	cpu := hw.Nexus7().CPU
	linux := NewLinuxCosts(cpu)
	cider := NewCiderCosts(cpu)
	xnuNative := NewXNUNativeCosts(hw.IPadMini().CPU)
	if linux.PersonaCheck != 0 {
		t.Fatal("vanilla kernel must not persona-check")
	}
	if cider.PersonaCheck == 0 || cider.XNUTrapDemux == 0 || cider.SetPersonaCost == 0 {
		t.Fatal("cider costs incomplete")
	}
	if xnuNative.SelectMaxFDs == 0 || xnuNative.SelectPerFD <= linux.SelectPerFD {
		t.Fatal("xnu-native select profile wrong")
	}
	for _, p := range []Profile{ProfileLinuxVanilla, ProfileCider, ProfileXNUNative} {
		if p.String() == "" {
			t.Fatal("profile name missing")
		}
	}
}
