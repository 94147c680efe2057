// Package libsystem is the simulated iOS user-space runtime: libSystem's
// syscall wrappers (trapping with XNU numbers through the XNU ABI), the
// user half of the pthread library (backed by the duct-taped psynch kernel
// support), Mach IPC convenience calls, and the per-process atfork/atexit
// handler machinery whose 115-library registration load explains the iOS
// fork/exit costs of Section 6.2.
package libsystem

import (
	"time"

	"repro/internal/abi"
	"repro/internal/kernel"
	"repro/internal/persona"
	"repro/internal/xnu"
)

// StateKey locates the runtime state in task user data.
const StateKey = "libsystem.state"

// Handler is a registered atfork/atexit callback.
type Handler func(t *kernel.Thread)

// State is libSystem's per-process runtime state. It lives in the process
// image, so fork clones it (UserDataCloner) and exec destroys it.
type State struct {
	atexit        []Handler
	atforkPrepare []Handler
	atforkParent  []Handler
	atforkChild   []Handler
}

// CloneUserData implements kernel.UserDataCloner.
func (s *State) CloneUserData() any {
	c := &State{}
	c.atexit = append(c.atexit, s.atexit...)
	c.atforkPrepare = append(c.atforkPrepare, s.atforkPrepare...)
	c.atforkParent = append(c.atforkParent, s.atforkParent...)
	c.atforkChild = append(c.atforkChild, s.atforkChild...)
	return c
}

// ForTask returns (creating if needed) the task's libSystem state.
func ForTask(tk *kernel.Task) *State {
	if v, ok := tk.UserData(StateKey); ok {
		return v.(*State)
	}
	s := &State{}
	tk.SetUserData(StateKey, s)
	return s
}

// AtExit registers an exit handler (runs LIFO, as atexit does).
func (s *State) AtExit(h Handler) { s.atexit = append(s.atexit, h) }

// AtFork registers a pthread_atfork triple; nil members are skipped.
func (s *State) AtFork(prepare, parent, child Handler) {
	if prepare != nil {
		s.atforkPrepare = append(s.atforkPrepare, prepare)
	}
	if parent != nil {
		s.atforkParent = append(s.atforkParent, parent)
	}
	if child != nil {
		s.atforkChild = append(s.atforkChild, child)
	}
}

// Counts reports (atexit, prepare, parent, child) handler counts.
func (s *State) Counts() (int, int, int, int) {
	return len(s.atexit), len(s.atforkPrepare), len(s.atforkParent), len(s.atforkChild)
}

// C is a thread's libSystem handle: the calling convention every simulated
// iOS program uses to reach the kernel.
type C struct {
	// T is the calling thread.
	T *kernel.Thread
}

// Sys wraps a thread in its libSystem interface.
func Sys(t *kernel.Thread) *C { return &C{T: t} }

func (c *C) state() *State { return ForTask(c.T.Task()) }

// Errno returns the thread's errno from the iOS TLS area, in BSD
// numbering — reading it exercises the persona TLS mechanics.
func (c *C) Errno() int { return c.T.Persona.TLS(persona.IOS).Errno }

// Exit runs the process's atexit handlers (the 115 dyld-registered
// per-library handlers on a real app) and then issues the XNU exit
// syscall. It does not return.
func (c *C) Exit(status int) {
	s := c.state()
	for i := len(s.atexit) - 1; i >= 0; i-- {
		s.atexit[i](c.T)
	}
	c.T.Syscall(abi.XNUExit, &kernel.SyscallArgs{I: [6]uint64{uint64(status)}})
}

// Fork is libSystem fork: run the pthread_atfork prepare handlers, trap,
// then run parent handlers (parent) or child handlers + body (child). The
// handler execution is the user-space share of the 14x iOS fork+exit cost.
func (c *C) Fork(child func(cc *C)) int {
	s := c.state()
	for i := len(s.atforkPrepare) - 1; i >= 0; i-- { // prepare runs LIFO
		s.atforkPrepare[i](c.T)
	}
	ret := c.T.Syscall(abi.XNUFork, &kernel.SyscallArgs{ChildFn: func(ct *kernel.Thread) {
		cs := ForTask(ct.Task())
		for _, h := range cs.atforkChild {
			h(ct)
		}
		child(Sys(ct))
	}})
	for _, h := range s.atforkParent {
		h(c.T)
	}
	if ret.Errno != kernel.OK {
		return -1
	}
	return int(ret.R0)
}

// Exec replaces the process image; returns only on failure.
func (c *C) Exec(path string, argv []string) kernel.Errno {
	return c.T.Syscall(abi.XNUExecve, &kernel.SyscallArgs{Path: path, Argv: argv}).Errno
}

// PosixSpawn starts path as a new process, returning its pid.
func (c *C) PosixSpawn(path string, argv []string) (int, kernel.Errno) {
	ret := c.T.Syscall(abi.XNUPosixSpawn, &kernel.SyscallArgs{Path: path, Argv: argv})
	return int(ret.R0), ret.Errno
}

// Wait blocks for a child to exit, returning (pid, status).
func (c *C) Wait(pid int) (int, int, kernel.Errno) {
	ret := c.T.Syscall(abi.XNUWait4, &kernel.SyscallArgs{I: [6]uint64{uint64(pid)}})
	return int(int64(ret.R0)), int(ret.R1), ret.Errno
}

// Open opens a path for reading/writing.
func (c *C) Open(path string) (int, kernel.Errno) {
	ret := c.T.Syscall(abi.XNUOpen, &kernel.SyscallArgs{Path: path})
	return int(int64(ret.R0)), ret.Errno
}

// OpenFlags opens a path with XNU open(2) flag bits (an iOS binary passes
// XNU's numbering, e.g. O_CREAT = 0x200; the ABI table renumbers).
func (c *C) OpenFlags(path string, flags int) (int, kernel.Errno) {
	ret := c.T.Syscall(abi.XNUOpen, &kernel.SyscallArgs{Path: path, I: [6]uint64{0, uint64(flags)}})
	return int(int64(ret.R0)), ret.Errno
}

// OpenCreate opens a path, creating it if absent (open with XNU O_CREAT).
func (c *C) OpenCreate(path string) (int, kernel.Errno) {
	return c.OpenFlags(path, abi.XNUOCreat)
}

// Dup duplicates a descriptor.
func (c *C) Dup(fd int) (int, kernel.Errno) {
	ret := c.T.Syscall(abi.XNUDup, &kernel.SyscallArgs{I: [6]uint64{uint64(fd)}})
	return int(int64(ret.R0)), ret.Errno
}

// Creat creates (or truncates) a file.
func (c *C) Creat(path string) (int, kernel.Errno) {
	ret := c.T.Syscall(abi.XNUCreat, &kernel.SyscallArgs{Path: path})
	return int(int64(ret.R0)), ret.Errno
}

// Close closes a descriptor.
func (c *C) Close(fd int) kernel.Errno {
	return c.T.Syscall(abi.XNUClose, &kernel.SyscallArgs{I: [6]uint64{uint64(fd)}}).Errno
}

// Read fills buf from fd.
func (c *C) Read(fd int, buf []byte) (int, kernel.Errno) {
	ret := c.T.Syscall(abi.XNURead, &kernel.SyscallArgs{I: [6]uint64{uint64(fd)}, Buf: buf})
	return int(ret.R0), ret.Errno
}

// Write sends buf to fd.
func (c *C) Write(fd int, buf []byte) (int, kernel.Errno) {
	ret := c.T.Syscall(abi.XNUWrite, &kernel.SyscallArgs{I: [6]uint64{uint64(fd)}, Buf: buf})
	return int(ret.R0), ret.Errno
}

// Unlink removes a file.
func (c *C) Unlink(path string) kernel.Errno {
	return c.T.Syscall(abi.XNUUnlink, &kernel.SyscallArgs{Path: path}).Errno
}

// Pipe returns (readFD, writeFD).
func (c *C) Pipe() (int, int, kernel.Errno) {
	ret := c.T.Syscall(abi.XNUPipe, nil)
	return int(ret.R0), int(ret.R1), ret.Errno
}

// Socketpair returns a connected AF_UNIX pair.
func (c *C) Socketpair() (int, int, kernel.Errno) {
	ret := c.T.Syscall(abi.XNUSocketpair, nil)
	return int(ret.R0), int(ret.R1), ret.Errno
}

// Select waits for readiness.
func (c *C) Select(req *kernel.SelectRequest) (*kernel.SelectResult, kernel.Errno) {
	ret := c.T.Syscall(abi.XNUSelect, &kernel.SyscallArgs{Select: req})
	return ret.Select, ret.Errno
}

// Ioctl issues a device control call.
func (c *C) Ioctl(fd int, req, arg uint64) (uint64, kernel.Errno) {
	ret := c.T.Syscall(abi.XNUIoctl, &kernel.SyscallArgs{I: [6]uint64{uint64(fd), req, arg}})
	return ret.R0, ret.Errno
}

// GetPID returns the process id.
func (c *C) GetPID() int { return int(c.T.Syscall(abi.XNUGetpid, nil).R0) }

// GetPPID returns the parent process id.
func (c *C) GetPPID() int { return int(c.T.Syscall(abi.XNUGetppid, nil).R0) }

// Kill sends sig (XNU numbering) to pid.
func (c *C) Kill(pid, sig int) kernel.Errno {
	return c.T.Syscall(abi.XNUKill, &kernel.SyscallArgs{I: [6]uint64{uint64(pid), uint64(sig)}}).Errno
}

// Sigaction installs a handler for sig (XNU numbering). The handler
// receives the XNU signal number.
func (c *C) Sigaction(sig int, h kernel.SignalHandler) kernel.Errno {
	var act *kernel.SigAction
	if h != nil {
		act = &kernel.SigAction{Handler: h}
	}
	return c.T.Syscall(abi.XNUSigaction, &kernel.SyscallArgs{I: [6]uint64{uint64(sig)}, Act: act}).Errno
}

// Getrlimit reads a resource limit. The resource number is XNU's (an iOS
// binary says RLIMIT_NOFILE = 8); the ABI table renumbers at the boundary.
func (c *C) Getrlimit(res int) (cur, max uint64, errno kernel.Errno) {
	ret := c.T.Syscall(abi.XNUGetrlimit, &kernel.SyscallArgs{I: [6]uint64{uint64(res)}})
	return ret.R0, ret.R1, ret.Errno
}

// Setrlimit sets a resource limit (XNU resource numbering).
func (c *C) Setrlimit(res int, cur, max uint64) kernel.Errno {
	return c.T.Syscall(abi.XNUSetrlimit, &kernel.SyscallArgs{I: [6]uint64{uint64(res), cur, max}}).Errno
}

// Memory-pressure dispatch source ------------------------------------

// XNU dispatch-source memorystatus flags
// (DISPATCH_MEMORYPRESSURE_WARN/CRITICAL): the vocabulary an iOS binary's
// pressure handler speaks.
const (
	DispatchMemoryPressureWarn     = 0x2
	DispatchMemoryPressureCritical = 0x4
)

// dispatchSourceCycles is the user-space cost of one dispatch-source
// event delivery (libdispatch source fire + block invoke).
const dispatchSourceCycles = 1300

// DispatchSourceMemoryPressure models
// dispatch_source_create(DISPATCH_SOURCE_TYPE_MEMORYPRESSURE): handler
// receives XNU mask flags when the kernel's memorystatus ladder crosses a
// watermark. Delivery is synchronous in the context of the thread that
// crossed the watermark (the shrinker convention), so handlers should
// only shed caches. The registration dies with the process.
func (c *C) DispatchSourceMemoryPressure(handler func(flags int)) {
	t := c.T
	cpu := t.Kernel().Device().CPU
	t.Kernel().Memorystatus().OnPressure(t.Task(), func(level kernel.PressureLevel) {
		t.Kernel().Sim().Current().Advance(cpu.Cycles(dispatchSourceCycles))
		flags := DispatchMemoryPressureWarn
		if level == kernel.PressureCritical {
			flags = DispatchMemoryPressureCritical
		}
		handler(flags)
	})
}

// SetPersona switches the calling thread's persona via Cider's syscall.
func (c *C) SetPersona(to persona.Kind) persona.Kind {
	ret := c.T.SetPersona(abi.SetPersonaTrap, to)
	return persona.Kind(ret.R0)
}

// Mach IPC -----------------------------------------------------------

// MachReplyPort allocates a receive right (mach_reply_port trap).
func (c *C) MachReplyPort() xnu.PortName {
	return xnu.PortName(c.T.Syscall(abi.MachReplyPort, nil).R0)
}

// MachSend sends msg to the port named dest.
func (c *C) MachSend(dest xnu.PortName, msg *xnu.Message, timeout time.Duration) xnu.KernReturn {
	abi.SetCarrier(c.T, &abi.MsgCarrier{Msg: msg, Timeout: timeout})
	ret := c.T.Syscall(abi.MachMsgTrap, &kernel.SyscallArgs{I: [6]uint64{uint64(dest), abi.MachSendMsg}})
	return xnu.KernReturn(ret.R0)
}

// MachReceive receives from the port named recv.
func (c *C) MachReceive(recv xnu.PortName, timeout time.Duration) (*xnu.Message, xnu.KernReturn) {
	carrier := &abi.MsgCarrier{Timeout: timeout}
	abi.SetCarrier(c.T, carrier)
	ret := c.T.Syscall(abi.MachMsgTrap, &kernel.SyscallArgs{I: [6]uint64{uint64(recv), abi.MachRcvMsg}})
	return carrier.Result, xnu.KernReturn(ret.R0)
}

// pthreads ------------------------------------------------------------

// PthreadMutexLock locks the user mutex at uaddr (fast path elided: the
// simulation always takes the psynch kernel path, a conservative model).
func (c *C) PthreadMutexLock(uaddr uint64) xnu.KernReturn {
	return xnu.KernReturn(c.T.Syscall(abi.XNUPsynchMutexWait, &kernel.SyscallArgs{I: [6]uint64{uaddr}}).R0)
}

// PthreadMutexUnlock unlocks the user mutex at uaddr.
func (c *C) PthreadMutexUnlock(uaddr uint64) xnu.KernReturn {
	return xnu.KernReturn(c.T.Syscall(abi.XNUPsynchMutexDrop, &kernel.SyscallArgs{I: [6]uint64{uaddr}}).R0)
}

// PthreadCondWait waits on the condvar at cvaddr with the mutex at muaddr.
func (c *C) PthreadCondWait(cvaddr, muaddr uint64, timeout time.Duration) (timedOut bool, kr xnu.KernReturn) {
	ret := c.T.Syscall(abi.XNUPsynchCVWait, &kernel.SyscallArgs{I: [6]uint64{cvaddr, muaddr, uint64(timeout)}})
	return ret.R1 == 1, xnu.KernReturn(ret.R0)
}

// PthreadCondSignal wakes one condvar waiter.
func (c *C) PthreadCondSignal(cvaddr uint64) xnu.KernReturn {
	return xnu.KernReturn(c.T.Syscall(abi.XNUPsynchCVSignal, &kernel.SyscallArgs{I: [6]uint64{cvaddr}}).R0)
}

// PthreadCondBroadcast wakes all condvar waiters.
func (c *C) PthreadCondBroadcast(cvaddr uint64) int {
	return int(c.T.Syscall(abi.XNUPsynchCVBroad, &kernel.SyscallArgs{I: [6]uint64{cvaddr}}).R0)
}

// SemaphoreWait waits on the Mach semaphore at uaddr.
func (c *C) SemaphoreWait(uaddr uint64) xnu.KernReturn {
	return xnu.KernReturn(c.T.Syscall(abi.SemaphoreWaitTrap, &kernel.SyscallArgs{I: [6]uint64{uaddr}}).R0)
}

// SemaphoreSignal signals the Mach semaphore at uaddr.
func (c *C) SemaphoreSignal(uaddr uint64) xnu.KernReturn {
	return xnu.KernReturn(c.T.Syscall(abi.SemaphoreSignalTrap, &kernel.SyscallArgs{I: [6]uint64{uaddr}}).R0)
}

// I/O Kit ------------------------------------------------------------

// IOServiceGetMatchingService looks a registry entry up by class name via
// the I/O Kit MIG trap; returns the first entry's id and the match count.
func (c *C) IOServiceGetMatchingService(class string) (uint64, int) {
	ret := c.T.Syscall(abi.IOServiceMatchingTrap, &kernel.SyscallArgs{Path: class})
	return ret.R0, int(ret.R1)
}

// IOConnectCallMethod invokes a matched driver method (selector + scalar
// arguments) on a registry entry.
func (c *C) IOConnectCallMethod(entryID uint64, selector uint32, args ...uint64) (uint64, uint64, kernel.Errno) {
	a := &kernel.SyscallArgs{}
	a.I[0] = entryID
	a.I[1] = uint64(selector)
	for i, v := range args {
		if i+2 >= len(a.I) {
			break
		}
		a.I[i+2] = v
	}
	ret := c.T.Syscall(abi.IOConnectCallTrap, a)
	return ret.R0, ret.R1, ret.Errno
}
