// Package bionic is the simulated Android user-space runtime: Bionic libc
// syscall wrappers (Linux ABI numbers), the /system/bin/linker dynamic
// loader for ELF shared objects, and a minimal /system/bin/sh used by the
// lmbench fork+sh measurements.
package bionic

import (
	"repro/internal/elfx"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/persona"
	"repro/internal/prog"
)

// LinkerKey is the registry key of /system/bin/linker.
const LinkerKey = "bionic-linker"

// ShKey is the registry key of the shell program body.
const ShKey = "bionic-sh"

// C is a thread's Bionic libc handle.
type C struct {
	// T is the calling thread.
	T *kernel.Thread
}

// Sys wraps a thread in its Bionic interface.
func Sys(t *kernel.Thread) *C { return &C{T: t} }

// Errno returns the thread's errno from the Android TLS area (Linux
// numbering).
func (c *C) Errno() int { return c.T.Persona.TLS(persona.Android).Errno }

// Exit terminates the process.
func (c *C) Exit(status int) {
	c.T.Syscall(kernel.SysExit, &kernel.SyscallArgs{I: [6]uint64{uint64(status)}})
}

// Fork forks; the child runs child.
func (c *C) Fork(child func(cc *C)) int {
	ret := c.T.Syscall(kernel.SysFork, &kernel.SyscallArgs{ChildFn: func(ct *kernel.Thread) {
		child(Sys(ct))
	}})
	if ret.Errno != kernel.OK {
		return -1
	}
	return int(ret.R0)
}

// Exec replaces the image; returns only on failure.
func (c *C) Exec(path string, argv []string) kernel.Errno {
	return c.T.Syscall(kernel.SysExecve, &kernel.SyscallArgs{Path: path, Argv: argv}).Errno
}

// Wait reaps a child.
func (c *C) Wait(pid int) (int, int, kernel.Errno) {
	ret := c.T.Syscall(kernel.SysWait4, &kernel.SyscallArgs{I: [6]uint64{uint64(pid)}})
	return int(int64(ret.R0)), int(ret.R1), ret.Errno
}

// Open opens a file.
func (c *C) Open(path string) (int, kernel.Errno) {
	ret := c.T.Syscall(kernel.SysOpen, &kernel.SyscallArgs{Path: path})
	return int(int64(ret.R0)), ret.Errno
}

// OpenFlags opens a file with Linux open(2) flag bits.
func (c *C) OpenFlags(path string, flags int) (int, kernel.Errno) {
	ret := c.T.Syscall(kernel.SysOpen, &kernel.SyscallArgs{Path: path, I: [6]uint64{0, uint64(flags)}})
	return int(int64(ret.R0)), ret.Errno
}

// OpenCreate opens a file, creating it if absent (open with O_CREAT).
func (c *C) OpenCreate(path string) (int, kernel.Errno) {
	return c.OpenFlags(path, kernel.OCreat)
}

// Dup duplicates a descriptor.
func (c *C) Dup(fd int) (int, kernel.Errno) {
	ret := c.T.Syscall(kernel.SysDup, &kernel.SyscallArgs{I: [6]uint64{uint64(fd)}})
	return int(int64(ret.R0)), ret.Errno
}

// Creat creates a file.
func (c *C) Creat(path string) (int, kernel.Errno) {
	ret := c.T.Syscall(kernel.SysCreat, &kernel.SyscallArgs{Path: path})
	return int(int64(ret.R0)), ret.Errno
}

// Close closes a descriptor.
func (c *C) Close(fd int) kernel.Errno {
	return c.T.Syscall(kernel.SysClose, &kernel.SyscallArgs{I: [6]uint64{uint64(fd)}}).Errno
}

// Read fills buf.
func (c *C) Read(fd int, buf []byte) (int, kernel.Errno) {
	ret := c.T.Syscall(kernel.SysRead, &kernel.SyscallArgs{I: [6]uint64{uint64(fd)}, Buf: buf})
	return int(ret.R0), ret.Errno
}

// Write sends buf.
func (c *C) Write(fd int, buf []byte) (int, kernel.Errno) {
	ret := c.T.Syscall(kernel.SysWrite, &kernel.SyscallArgs{I: [6]uint64{uint64(fd)}, Buf: buf})
	return int(ret.R0), ret.Errno
}

// Unlink removes a file.
func (c *C) Unlink(path string) kernel.Errno {
	return c.T.Syscall(kernel.SysUnlink, &kernel.SyscallArgs{Path: path}).Errno
}

// Pipe returns (readFD, writeFD).
func (c *C) Pipe() (int, int, kernel.Errno) {
	ret := c.T.Syscall(kernel.SysPipe, nil)
	return int(ret.R0), int(ret.R1), ret.Errno
}

// Socketpair returns a connected AF_UNIX pair.
func (c *C) Socketpair() (int, int, kernel.Errno) {
	ret := c.T.Syscall(kernel.SysSocketpair, nil)
	return int(ret.R0), int(ret.R1), ret.Errno
}

// Select waits for readiness.
func (c *C) Select(req *kernel.SelectRequest) (*kernel.SelectResult, kernel.Errno) {
	ret := c.T.Syscall(kernel.SysSelect, &kernel.SyscallArgs{Select: req})
	return ret.Select, ret.Errno
}

// Ioctl issues a device control call.
func (c *C) Ioctl(fd int, req, arg uint64) (uint64, kernel.Errno) {
	ret := c.T.Syscall(kernel.SysIoctl, &kernel.SyscallArgs{I: [6]uint64{uint64(fd), req, arg}})
	return ret.R0, ret.Errno
}

// GetPID returns the process id.
func (c *C) GetPID() int { return int(c.T.Syscall(kernel.SysGetpid, nil).R0) }

// GetPPID returns the parent pid.
func (c *C) GetPPID() int { return int(c.T.Syscall(kernel.SysGetppid, nil).R0) }

// Kill sends sig (Linux numbering).
func (c *C) Kill(pid, sig int) kernel.Errno {
	return c.T.Syscall(kernel.SysKill, &kernel.SyscallArgs{I: [6]uint64{uint64(pid), uint64(sig)}}).Errno
}

// Sigaction installs a handler (Linux numbering).
func (c *C) Sigaction(sig int, h kernel.SignalHandler) kernel.Errno {
	var act *kernel.SigAction
	if h != nil {
		act = &kernel.SigAction{Handler: h}
	}
	return c.T.Syscall(kernel.SysRtSigaction, &kernel.SyscallArgs{I: [6]uint64{uint64(sig)}, Act: act}).Errno
}

// Getrlimit reads a resource limit (Linux resource numbering — the
// kernel's canonical domain, so no translation happens on this path).
func (c *C) Getrlimit(res int) (cur, max uint64, errno kernel.Errno) {
	ret := c.T.Syscall(kernel.SysGetrlimit, &kernel.SyscallArgs{I: [6]uint64{uint64(res)}})
	return ret.R0, ret.R1, ret.Errno
}

// Setrlimit sets a resource limit (Linux resource numbering).
func (c *C) Setrlimit(res int, cur, max uint64) kernel.Errno {
	return c.T.Syscall(kernel.SysSetrlimit, &kernel.SyscallArgs{I: [6]uint64{uint64(res), cur, max}}).Errno
}

// Android memory-pressure levels, as delivered to ComponentCallbacks2
// onTrimMemory / the lmkd pressure socket. The Linux analogue of XNU's
// dispatch-source flags: same kernel ladder, persona-appropriate
// vocabulary.
const (
	TrimMemoryRunningModerate = 5  // warn watermark crossed
	TrimMemoryRunningCritical = 15 // critical watermark crossed
)

// trimDeliveryCycles is the user-space cost of one onTrimMemory
// callback delivery (binder thread wakeup + dispatch).
const trimDeliveryCycles = 1500

// OnTrimMemory registers a pressure listener for the calling task,
// modelling ActivityManager memory-trim callbacks backed by the same
// kernel memorystatus ladder that feeds iOS dispatch sources. The handler
// runs in the context of the thread that crossed the watermark and should
// only shed caches. The registration dies with the process.
func (c *C) OnTrimMemory(handler func(level int)) {
	t := c.T
	cpu := t.Kernel().Device().CPU
	t.Kernel().Memorystatus().OnPressure(t.Task(), func(lv kernel.PressureLevel) {
		t.Kernel().Sim().Current().Advance(cpu.Cycles(trimDeliveryCycles))
		level := TrimMemoryRunningModerate
		if lv == kernel.PressureCritical {
			level = TrimMemoryRunningCritical
		}
		handler(level)
	})
}

// SetPersona switches persona (Cider kernels only).
func (c *C) SetPersona(to persona.Kind) (persona.Kind, kernel.Errno) {
	ret := c.T.SetPersona(kernel.SysSetPersona, to)
	return persona.Kind(ret.R0), ret.Errno
}

// RegisterLinker installs the user-space dynamic linker program: it loads
// each DT_NEEDED shared object from /system/lib, maps it, binds exports,
// and then calls the program entry. Far fewer libraries than iOS's dyld
// walk — Android binaries stay cheap to exec.
func RegisterLinker(reg *prog.Registry) error {
	return reg.Register(LinkerKey, func(c *prog.Call) uint64 {
		t := c.Ctx.(*kernel.Thread)
		tk := t.Task()
		k := t.Kernel()
		cpu := k.Device().CPU
		var needed []string
		if v, ok := tk.UserData("linker.needed"); ok {
			needed = v.([]string)
		}
		entryKeyV, ok := tk.UserData("linker.entry")
		if !ok {
			return 255
		}
		loaded := map[string]bool{}
		work := append([]string(nil), needed...)
		for len(work) > 0 {
			so := work[0]
			work = work[1:]
			if loaded[so] {
				continue
			}
			loaded[so] = true
			path := "/system/lib/" + so
			node, err := k.Root().Lookup(path)
			if err != nil {
				return 255 // CANNOT LINK EXECUTABLE
			}
			t.Charge(k.Device().Storage.OpLatency)
			t.Charge(cpu.Cycles(26000)) // parse + relocate
			f, perr := elfx.Parse(node.Data())
			if perr != nil {
				return 255
			}
			for _, seg := range f.Segments {
				size := uint64(seg.MemSize)
				if size < uint64(len(seg.Data)) {
					size = uint64(len(seg.Data))
				}
				if size == 0 {
					continue
				}
				t.Charge(k.Costs().SegmentMap)
				if _, merr := tk.Mem().Map(0, size, mem.ProtRead|mem.ProtExec, path, false); merr != nil {
					return 255
				}
			}
			t.Charge(cpu.Cycles(1040 * float64(len(f.ExportedSymbols()))))
			work = append(work, f.Needed...)
		}
		entry, ok := k.Registry().Lookup(entryKeyV.(string))
		if !ok {
			return 255
		}
		return entry(&prog.Call{Ctx: t, Args: c.Args})
	})
}

// RegisterSh installs the shell program body: `sh -c <command>` style —
// charge shell startup, then fork+exec the command and propagate its
// status. Used by the lmbench fork+sh measurement.
func RegisterSh(reg *prog.Registry) error {
	return reg.Register(ShKey, func(c *prog.Call) uint64 {
		t := c.Ctx.(*kernel.Thread)
		lc := Sys(t)
		argv := t.Task().Argv()
		// Shell initialization: environment setup, option parsing, profile
		// handling — the bulk of a real sh's startup latency.
		t.Charge(t.Kernel().Device().CPU.Cycles(2300000)) // ~1.8 ms @1.3GHz
		if len(argv) < 2 || argv[0] != "-c" {
			return 2
		}
		cmd := argv[1]
		pid := lc.Fork(func(cc *C) {
			cc.Exec(cmd, nil)
			cc.Exit(127)
		})
		if pid < 0 {
			return 2
		}
		_, status, _ := lc.Wait(pid)
		return uint64(status)
	})
}
