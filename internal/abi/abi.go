// Package abi implements the XNU kernel ABI on the domestic kernel
// (Section 4.1): the syscall dispatch table Cider installs for the iOS
// persona. XNU BSD syscalls are implemented as thin wrappers that map
// arguments from XNU structures/conventions to Linux ones and then
// "directly invoke existing Linux syscall implementations"; XNU-only calls
// (posix_spawn, the Mach traps, psynch) are built from combinations of
// Linux primitives and the duct-taped subsystems in internal/xnu.
//
// iOS binaries trap into the kernel in four different ways (the four trap
// classes); the XNU table demultiplexes them. The table is marked as
// translating, so every call through it is priced from the cost table:
// the kernel charges the trap-demux and translation costs that produce
// the 40% null-syscall overhead of Fig. 5 (all zero on the iPad, where
// the ABI is native).
package abi

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/iokit"
	"repro/internal/kernel"
	"repro/internal/persona"
	"repro/internal/trace"
	"repro/internal/xnu"
)

// TrapClass is one of the four XNU trap entry paths.
type TrapClass int

const (
	// TrapUnix is a BSD (POSIX) syscall.
	TrapUnix TrapClass = iota
	// TrapMach is a Mach trap (negative numbers in XNU's convention).
	TrapMach
	// TrapMachDep is a machine-dependent call (cache flush, TLS set).
	TrapMachDep
	// TrapDiag is a diagnostics call.
	TrapDiag
)

// XNU BSD syscall numbers (bsd/kern/syscalls.master) for the calls the
// simulation implements. Where XNU and Linux numbering differ, the wrapper
// here is exactly the renumbering + convention shim Cider generates.
const (
	XNUExit   = 1
	XNUFork   = 2
	XNURead   = 3
	XNUWrite  = 4
	XNUOpen   = 5
	XNUClose  = 6
	XNUWait4  = 7
	XNUUnlink = 10
	XNUGetpid = 20
	// XNUDup is dup(2); XNU and Linux/ARM happen to agree on 41, but the
	// entry must still exist in this table — its absence made every
	// iOS-persona dup return ENOSYS while the Android persona's worked,
	// the first fd-state divergence the differential oracle flagged.
	XNUDup        = 41
	XNUKill       = 37
	XNUGetppid    = 39
	XNUPipe       = 42
	XNUSigaction  = 46
	XNUIoctl      = 54
	XNUExecve     = 59
	XNUSelect     = 93
	XNUSocketpair = 135
	XNUCreat      = 8 // via open(O_CREAT) on real XNU; kept for symmetry
	XNUGetrlimit  = 194
	XNUSetrlimit  = 195
	// XNUPosixSpawn is posix_spawn, "a flexible method of starting a
	// thread or new application" with no Linux equivalent; Cider builds it
	// from clone + exec (Section 4.1).
	XNUPosixSpawn = 244
	// Psynch syscalls (pthread kernel support, bsd/kern/pthread_support.c).
	XNUPsynchMutexWait = 301
	XNUPsynchMutexDrop = 302
	XNUPsynchCVWait    = 305
	XNUPsynchCVSignal  = 304
	XNUPsynchCVBroad   = 303
)

// XNU open(2) flag bits (bsd/sys/fcntl.h). They do not coincide with
// Linux's: XNU O_CREAT is 0x200, which on Linux is O_TRUNC. The open
// wrapper renumbers them before calling the Linux implementation —
// forwarding them raw made iOS-persona open(path, O_CREAT) fail ENOENT
// instead of creating the file (the kernel saw Linux 0x200 and no create
// bit), another oracle-flagged divergence.
const (
	// XNUOCreat is XNU's O_CREAT.
	XNUOCreat = 0x200
	// XNUOTrunc and XNUOExcl are translated alongside for completeness.
	XNUOTrunc = 0x400
	XNUOExcl  = 0x800
)

// XNU rlimit resource numbers (bsd/sys/resource.h). They do not coincide
// with Linux's: XNU RLIMIT_NOFILE is 8 where Linux says 7, and XNU
// conflates RLIMIT_RSS/RLIMIT_AS into one number (5). The getrlimit and
// setrlimit wrappers renumber before calling the Linux implementation —
// resource numbers are persona-domain payloads, like signal numbers.
const (
	// XNURLimitCPU through XNURLimitCore coincide with Linux numbering.
	XNURLimitCPU   = 0
	XNURLimitFSize = 1
	XNURLimitData  = 2
	XNURLimitStack = 3
	XNURLimitCore  = 4
	// XNURLimitAS is RLIMIT_AS == RLIMIT_RSS on XNU.
	XNURLimitAS      = 5
	XNURLimitMemlock = 6
	XNURLimitNProc   = 7
	XNURLimitNoFile  = 8
)

// Mach trap numbers (osfmk/kern/syscall_sw.c, negated as XNU does).
const (
	// MachReplyPort allocates a reply port (mach_reply_port).
	MachReplyPort = -26
	// TaskSelfTrap returns the task's self port.
	TaskSelfTrap = -28
	// MachMsgTrap is mach_msg_trap, the heart of Mach IPC.
	MachMsgTrap = -31
	// SemaphoreSignalTrap / SemaphoreWaitTrap are the fast semaphore traps.
	SemaphoreSignalTrap = -33
	SemaphoreWaitTrap   = -36
	// SetPersonaTrap is Cider's new set_persona syscall, reachable from
	// the foreign persona's table too ("available from all personas").
	SetPersonaTrap = -90
	// IOServiceMatchingTrap and IOConnectCallTrap model the I/O Kit MIG
	// calls (is_io_service_get_matching_services / io_connect_method) that
	// real user space sends to the master device port; the simulation
	// routes them as traps into the duct-taped registry (Section 5.1:
	// I/O Kit "is accessed via Mach IPC").
	IOServiceMatchingTrap = -40
	IOConnectCallTrap     = -41
)

// MachMsgOptions selects send/receive for MachMsgTrap via SyscallArgs.I[1].
const (
	// MachSendMsg is MACH_SEND_MSG.
	MachSendMsg = 1
	// MachRcvMsg is MACH_RCV_MSG.
	MachRcvMsg = 2
)

// MsgCarrier passes a Mach message through the generic syscall argument
// structure (the simulated equivalent of the user-space message buffer).
type MsgCarrier struct {
	// Msg is the message to send, or the received message on return.
	Msg *xnu.Message
	// Timeout bounds the operation (<0 blocks).
	Timeout time.Duration
	// Result is the received message.
	Result *xnu.Message
}

// The mach traps accept the carrier through a typed side channel: user
// data keyed per *thread* (each thread has its own message buffer on its
// own stack, so two threads trapping concurrently must not clobber each
// other). libsystem sets it before trapping, mirroring how real user space
// passes a message buffer pointer the kernel copies in.
func carrierKey(t *kernel.Thread) string {
	return fmt.Sprintf("mach.carrier.%d", t.TID())
}

// SetCarrier installs the message buffer for the next MachMsgTrap.
func SetCarrier(t *kernel.Thread, c *MsgCarrier) {
	t.Task().SetUserData(carrierKey(t), c)
}

// xnuTables are the process-wide XNU syscall tables, each built once on
// first use and read-only afterwards: index 0 serves the iPad's native XNU
// kernel, index 1 the persona-aware Cider kernel, whose table also
// registers set_persona.
var xnuTables = [2]func() *kernel.SyscallTable{
	sync.OnceValue(func() *kernel.SyscallTable { return buildXNUTable(false) }),
	sync.OnceValue(func() *kernel.SyscallTable { return buildXNUTable(true) }),
}

// XNUTable returns the shared iOS-persona syscall table. Kernels install
// it with SetSyscallTable; personaAware selects the Cider variant, built
// over kernel.LinuxTable(true) and with set_persona registered. Its Mach
// and psynch traps need the duct-taped subsystems (xnu.InstallIPC,
// xnu.InstallPsynch) on the trapping kernel.
func XNUTable(personaAware bool) *kernel.SyscallTable {
	if personaAware {
		return xnuTables[1]()
	}
	return xnuTables[0]()
}

// buildXNUTable builds one XNU table. Its BSD calls wrap the Linux
// table's handlers, so the iPad's table wraps a Linux table as well,
// although no iPad kernel installs one.
func buildXNUTable(personaAware bool) *kernel.SyscallTable {
	linux := kernel.LinuxTable(personaAware)
	tb := kernel.NewSyscallTable("xnu")
	tb.Translates = true

	// wrap forwards an XNU syscall to the Linux implementation of the
	// same operation, optionally transforming arguments first. This is
	// Cider's "simple wrapper that maps arguments from XNU structures to
	// Linux structures and then calls the Linux implementation".
	wrap := func(xnuNum, linuxNum int, name string, xform func(t *kernel.Thread, a *kernel.SyscallArgs)) {
		h, ok := linux.Lookup(linuxNum)
		if !ok {
			panic("abi: linux table missing " + name)
		}
		tb.Register(xnuNum, name, func(t *kernel.Thread, a *kernel.SyscallArgs) kernel.SyscallRet {
			if xform != nil {
				xform(t, a)
			}
			return h(t, a)
		})
	}

	wrap(XNUExit, kernel.SysExit, "exit", nil)
	wrap(XNUFork, kernel.SysFork, "fork", nil)
	wrap(XNURead, kernel.SysRead, "read", nil)
	wrap(XNUWrite, kernel.SysWrite, "write", nil)
	// open: XNU flag bits are renumbered to Linux's before the Linux
	// implementation sees them (O_CREAT 0x200 -> 0x40, etc.). Access-mode
	// bits (O_RDONLY/O_WRONLY/O_RDWR) coincide and pass through; unknown
	// bits are dropped rather than forwarded as a wrong Linux flag.
	wrap(XNUOpen, kernel.SysOpen, "open", func(t *kernel.Thread, a *kernel.SyscallArgs) {
		x := a.I[1]
		l := x & 0x3 // access mode
		if x&XNUOCreat != 0 {
			l |= kernel.OCreat
		}
		if x&XNUOTrunc != 0 {
			l |= 0x200 // Linux O_TRUNC
		}
		if x&XNUOExcl != 0 {
			l |= 0x80 // Linux O_EXCL
		}
		a.I[1] = l
	})
	wrap(XNUClose, kernel.SysClose, "close", nil)
	wrap(XNUWait4, kernel.SysWait4, "wait4", nil)
	wrap(XNUUnlink, kernel.SysUnlink, "unlink", nil)
	wrap(XNUGetpid, kernel.SysGetpid, "getpid", nil)
	wrap(XNUGetppid, kernel.SysGetppid, "getppid", nil)
	wrap(XNUPipe, kernel.SysPipe, "pipe", nil)
	wrap(XNUIoctl, kernel.SysIoctl, "ioctl", nil)
	wrap(XNUSelect, kernel.SysSelect, "select", nil)
	wrap(XNUExecve, kernel.SysExecve, "execve", nil)
	wrap(XNUSocketpair, kernel.SysSocketpair, "socketpair", nil)
	wrap(XNUCreat, kernel.SysCreat, "creat", nil)
	wrap(XNUDup, kernel.SysDup, "dup", nil)

	// kill: the signal number arrives in XNU numbering; renumber to the
	// canonical (Linux) value before invoking the Linux implementation.
	wrap(XNUKill, kernel.SysKill, "kill", func(t *kernel.Thread, a *kernel.SyscallArgs) {
		a.I[1] = uint64(kernel.SignalFromXNU(int(a.I[1])))
		if tr := t.Kernel().Tracer(); tr != nil {
			tr.Count(trace.CounterSignalXNUSend, 1)
		}
	})
	// sigaction: same renumbering for the signal being configured. The
	// handler itself receives XNU numbers at delivery time (the kernel's
	// signal layer translates based on the thread persona).
	wrap(XNUSigaction, kernel.SysRtSigaction, "sigaction", func(t *kernel.Thread, a *kernel.SyscallArgs) {
		a.I[0] = uint64(kernel.SignalFromXNU(int(a.I[0])))
		if tr := t.Kernel().Tracer(); tr != nil {
			tr.Count(trace.CounterSignalXNUSend, 1)
		}
	})

	// getrlimit/setrlimit: the resource number arrives in XNU numbering;
	// renumber to the canonical (Linux) value before invoking the Linux
	// implementation. The limit values themselves are plain byte counts
	// in both ABIs and pass through.
	wrap(XNUGetrlimit, kernel.SysGetrlimit, "getrlimit", func(t *kernel.Thread, a *kernel.SyscallArgs) {
		a.I[0] = uint64(kernel.RlimitFromXNU(int(a.I[0])))
		if tr := t.Kernel().Tracer(); tr != nil {
			tr.Count(trace.CounterRlimitXlate, 1)
		}
	})
	wrap(XNUSetrlimit, kernel.SysSetrlimit, "setrlimit", func(t *kernel.Thread, a *kernel.SyscallArgs) {
		a.I[0] = uint64(kernel.RlimitFromXNU(int(a.I[0])))
		if tr := t.Kernel().Tracer(); tr != nil {
			tr.Count(trace.CounterRlimitXlate, 1)
		}
	})

	// posix_spawn: built from the Linux fork (clone) and exec
	// implementations, as the paper describes.
	tb.Register(XNUPosixSpawn, "posix_spawn", func(t *kernel.Thread, a *kernel.SyscallArgs) kernel.SyscallRet {
		forkH, _ := linux.Lookup(kernel.SysFork)
		path, argv := a.Path, a.Argv
		fa := &kernel.SyscallArgs{ChildFn: func(ct *kernel.Thread) {
			// The child inherits the caller's persona, so trap with that
			// persona's syscall numbers.
			execNum, exitNum := kernel.SysExecve, kernel.SysExit
			if ct.Persona.Current() == persona.IOS {
				execNum, exitNum = XNUExecve, XNUExit
			}
			ct.Syscall(execNum, &kernel.SyscallArgs{Path: path, Argv: argv})
			// exec only returns on failure.
			ct.Syscall(exitNum, &kernel.SyscallArgs{I: [6]uint64{127}})
		}}
		return forkH(t, fa)
	})

	// Mach traps -------------------------------------------------------
	tb.Register(MachMsgTrap, "mach_msg", func(t *kernel.Thread, a *kernel.SyscallArgs) kernel.SyscallRet {
		ipc, ok := xnu.FromKernel(t.Kernel())
		if !ok {
			return kernel.SyscallRet{Errno: kernel.ENOSYS}
		}
		cv, ok := t.Task().UserData(carrierKey(t))
		if !ok {
			return kernel.SyscallRet{Errno: kernel.EINVAL}
		}
		c := cv.(*MsgCarrier)
		name := xnu.PortName(a.I[0])
		opts := a.I[1]
		var kr xnu.KernReturn
		switch {
		case opts&MachSendMsg != 0:
			kr = ipc.Send(t, name, c.Msg, c.Timeout)
		case opts&MachRcvMsg != 0:
			c.Result, kr = ipc.Receive(t, name, c.Timeout)
		default:
			return kernel.SyscallRet{Errno: kernel.EINVAL}
		}
		return kernel.SyscallRet{R0: uint64(kr)}
	})
	tb.Register(MachReplyPort, "mach_reply_port", func(t *kernel.Thread, a *kernel.SyscallArgs) kernel.SyscallRet {
		ipc, ok := xnu.FromKernel(t.Kernel())
		if !ok {
			return kernel.SyscallRet{Errno: kernel.ENOSYS}
		}
		name, kr := ipc.PortAllocate(t)
		if kr != xnu.KernSuccess {
			return kernel.SyscallRet{R0: uint64(xnu.PortNull)}
		}
		return kernel.SyscallRet{R0: uint64(name)}
	})
	tb.Register(TaskSelfTrap, "task_self", func(t *kernel.Thread, a *kernel.SyscallArgs) kernel.SyscallRet {
		// The task self port name is modeled as pid-tagged.
		//lint:allow chargecheck: task_self returns a cached name, modeled at trap entry/exit cost only
		return kernel.SyscallRet{R0: uint64(0x900 + t.Task().PID())}
	})
	tb.Register(SemaphoreWaitTrap, "semaphore_wait", func(t *kernel.Thread, a *kernel.SyscallArgs) kernel.SyscallRet {
		ps, ok := xnu.PsynchFromKernel(t.Kernel())
		if !ok {
			return kernel.SyscallRet{Errno: kernel.ENOSYS}
		}
		return kernel.SyscallRet{R0: uint64(ps.SemWait(t, a.I[0]))}
	})
	tb.Register(SemaphoreSignalTrap, "semaphore_signal", func(t *kernel.Thread, a *kernel.SyscallArgs) kernel.SyscallRet {
		ps, ok := xnu.PsynchFromKernel(t.Kernel())
		if !ok {
			return kernel.SyscallRet{Errno: kernel.ENOSYS}
		}
		return kernel.SyscallRet{R0: uint64(ps.SemSignal(t, a.I[0]))}
	})

	// psynch BSD syscalls ----------------------------------------------
	tb.Register(XNUPsynchMutexWait, "psynch_mutexwait", func(t *kernel.Thread, a *kernel.SyscallArgs) kernel.SyscallRet {
		ps, ok := xnu.PsynchFromKernel(t.Kernel())
		if !ok {
			return kernel.SyscallRet{Errno: kernel.ENOSYS}
		}
		return kernel.SyscallRet{R0: uint64(ps.MutexWait(t, a.I[0]))}
	})
	tb.Register(XNUPsynchMutexDrop, "psynch_mutexdrop", func(t *kernel.Thread, a *kernel.SyscallArgs) kernel.SyscallRet {
		ps, ok := xnu.PsynchFromKernel(t.Kernel())
		if !ok {
			return kernel.SyscallRet{Errno: kernel.ENOSYS}
		}
		return kernel.SyscallRet{R0: uint64(ps.MutexDrop(t, a.I[0]))}
	})
	tb.Register(XNUPsynchCVWait, "psynch_cvwait", func(t *kernel.Thread, a *kernel.SyscallArgs) kernel.SyscallRet {
		ps, ok := xnu.PsynchFromKernel(t.Kernel())
		if !ok {
			return kernel.SyscallRet{Errno: kernel.ENOSYS}
		}
		timedOut, kr := ps.CVWait(t, a.I[0], a.I[1], time.Duration(a.I[2]))
		r1 := uint64(0)
		if timedOut {
			r1 = 1
		}
		return kernel.SyscallRet{R0: uint64(kr), R1: r1}
	})
	tb.Register(XNUPsynchCVSignal, "psynch_cvsignal", func(t *kernel.Thread, a *kernel.SyscallArgs) kernel.SyscallRet {
		ps, ok := xnu.PsynchFromKernel(t.Kernel())
		if !ok {
			return kernel.SyscallRet{Errno: kernel.ENOSYS}
		}
		return kernel.SyscallRet{R0: uint64(ps.CVSignal(t, a.I[0]))}
	})
	tb.Register(XNUPsynchCVBroad, "psynch_cvbroad", func(t *kernel.Thread, a *kernel.SyscallArgs) kernel.SyscallRet {
		ps, ok := xnu.PsynchFromKernel(t.Kernel())
		if !ok {
			return kernel.SyscallRet{Errno: kernel.ENOSYS}
		}
		return kernel.SyscallRet{R0: uint64(ps.CVBroadcast(t, a.I[0]))}
	})

	// I/O Kit MIG surface ----------------------------------------------
	tb.Register(IOServiceMatchingTrap, "io_service_get_matching_services",
		func(t *kernel.Thread, a *kernel.SyscallArgs) kernel.SyscallRet {
			reg, ok := iokit.FromKernel(t.Kernel())
			if !ok {
				return kernel.SyscallRet{Errno: kernel.ENOSYS}
			}
			// The class name rides in Path (the simulated message body).
			matches := reg.ServiceMatching(t, a.Path)
			if len(matches) == 0 {
				return kernel.SyscallRet{R0: 0}
			}
			return kernel.SyscallRet{R0: matches[0].ID, R1: uint64(len(matches))}
		})
	tb.Register(IOConnectCallTrap, "io_connect_method",
		func(t *kernel.Thread, a *kernel.SyscallArgs) kernel.SyscallRet {
			reg, ok := iokit.FromKernel(t.Kernel())
			if !ok {
				return kernel.SyscallRet{Errno: kernel.ENOSYS}
			}
			out, err := reg.Call(t, a.I[0], uint32(a.I[1]), a.I[2:])
			if err != nil {
				return kernel.SyscallRet{Errno: kernel.EINVAL}
			}
			ret := kernel.SyscallRet{}
			if len(out) > 0 {
				ret.R0 = out[0]
			}
			if len(out) > 1 {
				ret.R1 = out[1]
			}
			return ret
		})

	// set_persona is reachable from all personas (Section 4.3).
	if personaAware {
		if h, ok := linux.Lookup(kernel.SysSetPersona); ok {
			tb.Register(SetPersonaTrap, "set_persona", h)
			tb.Register(kernel.SysSetPersona, "set_persona", h)
		}
	}
	return tb
}
