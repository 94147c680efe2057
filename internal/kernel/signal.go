package kernel

import (
	"repro/internal/persona"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Canonical (Linux/ARM) signal numbers. The ABI layer translates between
// these and XNU numbers at delivery and send time (Section 4.1: "Cider
// uses the persona of a given thread to deliver the correct signal").
const (
	// SIGHUP through SIGTERM share numbering across Linux and XNU.
	sigHUP  = 1
	sigINT  = 2
	sigQUIT = 3
	sigILL  = 4
	sigABRT = 6
	sigBUS  = 7 // XNU: 10
	sigFPE  = 8
	sigKILL = 9
	sigUSR1 = 10 // XNU: 30
	sigSEGV = 11
	sigUSR2 = 12 // XNU: 31
	sigPIPE = 13
	sigALRM = 14
	sigTERM = 15
	sigCHLD = 17 // XNU: 20
	sigCONT = 18 // XNU: 19
	sigSTOP = 19 // XNU: 17
	sigTSTP = 20 // XNU: 18
	sigURG  = 23 // XNU: 16
	sigIO   = 29 // XNU: 23 (SIGIO/SIGPOLL)
	sigPWR  = 30 // XNU: 29 (see the orphan pairing note on linuxToXNUSignal)
	sigSYS  = 31 // XNU: 12
	// sigSTKFLT is Linux-only (stack fault); paired with XNU's Linux-less
	// SIGEMT so the translation stays bijective.
	sigSTKFLT = 16 // XNU: 7 (SIGEMT)
	// NSIG bounds valid canonical numbers.
	nsig = 32
)

// Exported canonical signal numbers for user-space runtimes.
const (
	SIGHUP  = sigHUP
	SIGINT  = sigINT
	SIGQUIT = sigQUIT
	SIGILL  = sigILL
	SIGABRT = sigABRT
	SIGBUS  = sigBUS
	SIGFPE  = sigFPE
	SIGKILL = sigKILL
	SIGUSR1 = sigUSR1
	SIGSEGV = sigSEGV
	SIGUSR2 = sigUSR2
	SIGPIPE = sigPIPE
	SIGALRM = sigALRM
	SIGTERM = sigTERM
	SIGCHLD = sigCHLD
	SIGCONT = sigCONT
	SIGSTOP = sigSTOP
	SIGTSTP = sigTSTP
	SIGURG  = sigURG
	SIGIO   = sigIO
	SIGPWR  = sigPWR
	SIGSYS  = sigSYS
	NSIG    = nsig
)

// SignalHandler is an installed user-space handler. The signal number is
// passed in the *receiving persona's* numbering, as real XNU binaries
// expect (an iOS handler for SIGUSR1 sees 30, not 10).
type SignalHandler func(t *Thread, sig int)

// SigAction is a signal disposition.
type SigAction struct {
	// Handler is the user handler; nil means default disposition.
	Handler SignalHandler
}

// SigInfo describes a delivered signal to observers/tests.
type SigInfo struct {
	// Canonical is the Linux signal number.
	Canonical int
	// Delivered is the number the handler saw (persona-translated).
	Delivered int
}

// Sigaction installs a handler for a canonical signal number. Invoked via
// the syscall tables; the XNU table translates XNU numbers to canonical
// first.
func (t *Thread) sigactionInternal(sig int, act *SigAction) Errno {
	if sig <= 0 || sig >= nsig || sig == sigKILL || sig == sigSTOP {
		return EINVAL
	}
	t.Charge(t.k.costs.SigactionBase)
	if act == nil {
		delete(t.task.sigActions, sig)
	} else {
		t.task.sigActions[sig] = act
	}
	return OK
}

// postSignal queues a canonical signal on the target task's main thread
// and interrupts it if blocked in a syscall. Used by the kernel itself
// (SIGCHLD, SIGPIPE) and by kill.
func (k *Kernel) postSignal(target *Task, sig int) {
	if target == nil || target.state != taskRunning {
		return
	}
	th := target.MainThread()
	if th == nil {
		return
	}
	// Signals whose default disposition is "ignore" are discarded at post
	// time when unhandled, exactly as a real kernel drops them — in
	// particular SIGCHLD must not interrupt the parent's wait4.
	if act := target.sigActions[sig]; act == nil || act.Handler == nil {
		if sig == sigCHLD || sig == sigCONT {
			return
		}
	}
	th.sigPending = append(th.sigPending, sig)
	if tr := k.tracer; tr != nil {
		tr.Count(trace.CounterSignalPosted, 1)
	}
	// Interrupt a thread blocked in an interruptible sleep.
	if th.inSyscall && th.proc.State() == sim.StateParked {
		if cur := k.sim.Current(); cur != nil {
			cur.Wake(th.proc, sim.WakeInterrupted)
		}
	}
}

// killInternal implements kill(pid, sig) with canonical numbering.
func (t *Thread) killInternal(pid, sig int) Errno {
	if sig <= 0 || sig >= nsig {
		return EINVAL
	}
	target := t.k.tasks[pid]
	if target == nil || target.state != taskRunning {
		return ESRCH
	}
	// Cider checks the persona of the *target* thread to pick the right
	// delivery format — charged whether or not the personas differ.
	if t.k.PersonaAware() {
		t.Charge(t.k.costs.SignalPersonaLookup)
	}
	t.k.postSignal(target, sig)
	// Same-process signals are delivered on the way out of the kill
	// syscall (checkSignals at syscall exit), like a real kernel's
	// return-to-user path.
	return OK
}

// checkSignals delivers pending signals on the calling thread; called at
// syscall exit (the simulated return-to-user path).
func (t *Thread) checkSignals() {
	for len(t.sigPending) > 0 {
		sig := t.sigPending[0]
		t.sigPending = t.sigPending[1:]
		t.deliverSignal(sig)
	}
}

// deliverSignal runs the disposition for one canonical signal.
func (t *Thread) deliverSignal(sig int) {
	k := t.k
	act := t.task.sigActions[sig]
	if act == nil || act.Handler == nil {
		// Default dispositions: ignore the benign ones, terminate on the
		// fatal ones.
		switch sig {
		case sigCHLD, sigCONT:
			return
		default:
			// Real iOS binaries expect fatal faults to surface as Mach
			// exceptions routed through task/host exception ports before the
			// Unix disposition runs. Android-persona threads keep plain
			// Linux semantics — the persona split of Section 4.1.
			if isExceptionSignal(sig) && t.Persona.Current() == persona.IOS && k.excBridge != nil {
				if k.excBridge(t, sig) {
					return // catcher handled it; thread resumes
				}
			}
			if tr := k.tracer; tr != nil {
				tr.Count(trace.CounterSignalDelivered, 1)
				tr.Signal(t.proc.Name(), t.proc.ID(), t.Persona.Current(), sig,
					"default:terminate", t.proc.Now())
			}
			t.exitTask(128 + sig)
		}
		return
	}
	t.Charge(k.costs.SignalDeliverBase)
	delivered := sig
	translated := false
	if t.Persona.Current() == persona.IOS {
		if k.PersonaAware() {
			// Translate to the XNU number and copy the larger XNU
			// sigframe the iOS handler expects (the 25% lat_sig overhead).
			t.Charge(k.costs.SignalXNUTranslate + k.costs.SignalXNUFrame)
			translated = true
		}
		delivered = SignalToXNU(sig)
	}
	if tr := k.tracer; tr != nil {
		tr.Count(trace.CounterSignalDelivered, 1)
		if translated {
			tr.Count(trace.CounterSignalXNUDeliver, 1)
		}
		tr.Signal(t.proc.Name(), t.proc.ID(), t.Persona.Current(), delivered,
			"handler", t.proc.Now())
	}
	act.Handler(t, delivered)
}

// isExceptionSignal reports whether a canonical signal corresponds to a
// Mach exception class (the fatal faults EXC_* delivery covers).
func isExceptionSignal(sig int) bool {
	switch sig {
	case sigSEGV, sigBUS, sigILL, sigFPE, sigABRT:
		return true
	}
	return false
}

// IsExceptionSignal exposes the exception-signal set to the xnu extension
// and tests.
func IsExceptionSignal(sig int) bool { return isExceptionSignal(sig) }

// linuxToXNUSignal maps canonical Linux numbers to XNU numbers where they
// differ (sys/signal.h on each platform). The map must be a bijection on
// [1, nsig): a partial table is how the oracle-caught SIGTSTP bug happened
// — canonical 20 (TSTP) and canonical 17 (CHLD, XNU 20) both translated to
// XNU 20, so an iOS thread could neither register nor receive TSTP, while
// the Android persona handled it fine. Two signals have no counterpart on
// the other platform; they are paired with each other's orphans (STKFLT
// with EMT, PWR with INFO) so no number is lost in either direction —
// real Cider's translation table must make the same arbitrary choice or
// drop those signals entirely. TestSignalMapBijective pins all of this.
var linuxToXNUSignal = map[int]int{
	sigBUS:    10,
	sigUSR1:   30,
	sigUSR2:   31,
	sigCHLD:   20,
	sigCONT:   19,
	sigSTOP:   17,
	sigTSTP:   18,
	sigURG:    16,
	sigIO:     23,
	sigSYS:    12,
	sigSTKFLT: 7,  // Linux SIGSTKFLT <-> XNU SIGEMT (orphan pairing)
	sigPWR:    29, // Linux SIGPWR   <-> XNU SIGINFO (orphan pairing)
}

// xnuToLinuxSignal is the inverse mapping.
var xnuToLinuxSignal = func() map[int]int {
	m := make(map[int]int)
	for l, x := range linuxToXNUSignal {
		m[x] = l
	}
	return m
}()

// SignalToXNU converts a canonical Linux signal number to its XNU number.
func SignalToXNU(sig int) int {
	if x, ok := linuxToXNUSignal[sig]; ok {
		return x
	}
	return sig
}

// SignalFromXNU converts an XNU signal number to the canonical Linux one.
func SignalFromXNU(sig int) int {
	if l, ok := xnuToLinuxSignal[sig]; ok {
		return l
	}
	return sig
}
