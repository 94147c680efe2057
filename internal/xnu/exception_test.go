package xnu

// Exception-port tests for the crash-containment work: a registered
// catcher can resume a faulting iOS-persona thread, and every degraded
// path — no port, dead port, a catcher that crashes before replying,
// injected interrupts mid-delivery — ends in the default disposition
// within bounded virtual time, never a deadlock.

import (
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/persona"
)

// iosSyscalls lets iOS-persona threads in this harness dispatch through
// the Linux table directly — the ABI layer's number translation is out of
// scope here; only the persona at delivery time matters.
func iosSyscalls(h *harness) {
	h.k.SetSyscallTable(persona.IOS, kernel.LinuxTable(true))
}

// crashSelf drives the victim thread into the kernel's fatal-signal path
// the way a wild pointer would: switch to the iOS persona and raise sig
// on itself; delivery happens on the kill syscall's return-to-user path.
func crashSelf(th *kernel.Thread, sig int) {
	th.Persona.Switch(persona.IOS)
	th.Syscall(kernel.SysKill, &kernel.SyscallArgs{
		I: [6]uint64{uint64(th.Task().PID()), uint64(sig)},
	})
}

// TestExceptionCatcherResumesThread: the task exception port receives
// exception_raise with the fault record, replies EXC_HANDLED, and the
// faulting thread resumes instead of dying.
func TestExceptionCatcherResumesThread(t *testing.T) {
	h := newHarness(t)
	iosSyscalls(h)
	var rec map[string]string
	resumed := false
	h.runProcs(t, func(th *kernel.Thread) {
		excPort, kr := h.ipc.PortAllocate(th)
		if kr != KernSuccess {
			t.Errorf("PortAllocate: %#x", kr)
			return
		}
		if kr := h.ipc.TaskSetExceptionPort(th, excPort); kr != KernSuccess {
			t.Errorf("TaskSetExceptionPort: %#x", kr)
			return
		}
		th.SpawnThread("catcher", func(ct *kernel.Thread) {
			msg, kr := h.ipc.Receive(ct, excPort, 100*time.Millisecond)
			if kr != KernSuccess || msg.ID != MsgExceptionRaise {
				t.Errorf("catcher receive: kr=%#x", kr)
				return
			}
			rec = ParseExceptionBody(msg.Body)
			h.ipc.Send(ct, msg.ReplyName,
				&Message{ID: MsgExceptionReply, Body: []byte{ExcHandled}}, -1)
		})
		crashSelf(th, kernel.SIGSEGV)
		resumed = true
	})
	if !resumed {
		t.Fatal("catcher replied EXC_HANDLED but the thread did not resume")
	}
	if rec == nil {
		t.Fatal("catcher never saw exception_raise")
	}
	if rec["signal"] != "11" || rec["exception"] != "1" /* EXC_BAD_ACCESS */ {
		t.Fatalf("exception record = %v", rec)
	}
	if err := h.k.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestExceptionNoPortDefaultDisposition: with no exception port bound,
// the fatal signal keeps its default disposition and the thread dies —
// code after the fault must be unreachable.
func TestExceptionNoPortDefaultDisposition(t *testing.T) {
	h := newHarness(t)
	iosSyscalls(h)
	survived := false
	h.runProcs(t, func(th *kernel.Thread) {
		crashSelf(th, kernel.SIGBUS)
		survived = true
	})
	if survived {
		t.Fatal("unhandled fatal fault did not terminate the thread")
	}
	if err := h.k.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestExceptionPortDestroyedMidDelivery: the catcher takes delivery of
// exception_raise, destroys the exception port and exits without ever
// replying — a catcher crash in miniature. The victim's bounded reply
// wait must expire and the default disposition run; before the timeout
// existed this wedged the victim forever (sim.ErrDeadlock out of
// runProcs).
func TestExceptionPortDestroyedMidDelivery(t *testing.T) {
	h := newHarness(t)
	iosSyscalls(h)
	survived := false
	caught := false
	h.runProcs(t, func(th *kernel.Thread) {
		excPort, kr := h.ipc.PortAllocate(th)
		if kr != KernSuccess {
			t.Errorf("PortAllocate: %#x", kr)
			return
		}
		if kr := h.ipc.TaskSetExceptionPort(th, excPort); kr != KernSuccess {
			t.Errorf("TaskSetExceptionPort: %#x", kr)
			return
		}
		th.SpawnThread("crashing-catcher", func(ct *kernel.Thread) {
			msg, kr := h.ipc.Receive(ct, excPort, 100*time.Millisecond)
			if kr != KernSuccess || msg.ID != MsgExceptionRaise {
				return
			}
			caught = true
			h.ipc.PortDestroy(ct, excPort) // catcher dies mid-handling
		})
		crashSelf(th, kernel.SIGILL)
		survived = true
	})
	if !caught {
		t.Fatal("catcher never took delivery")
	}
	if survived {
		t.Fatal("victim resumed although the catcher never replied")
	}
	if err := h.k.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestExceptionPortDeadBeforeFault: an exception port already destroyed
// when the fault arrives is skipped entirely — straight to the default
// disposition, no send attempt, no deadlock.
func TestExceptionPortDeadBeforeFault(t *testing.T) {
	h := newHarness(t)
	iosSyscalls(h)
	survived := false
	h.runProcs(t, func(th *kernel.Thread) {
		excPort, kr := h.ipc.PortAllocate(th)
		if kr != KernSuccess {
			t.Errorf("PortAllocate: %#x", kr)
			return
		}
		if kr := h.ipc.TaskSetExceptionPort(th, excPort); kr != KernSuccess {
			t.Errorf("TaskSetExceptionPort: %#x", kr)
			return
		}
		h.ipc.PortDestroy(th, excPort)
		crashSelf(th, kernel.SIGFPE)
		survived = true
	})
	if survived {
		t.Fatal("victim resumed with a dead exception port")
	}
	if err := h.k.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestExceptionDeliveryRetriesInjectedInterrupts: MACH_SEND_INTERRUPTED
// on the exception_raise send and MACH_RCV_INTERRUPTED on the verdict
// receive are both retried (bounded), so an EINTR storm during delivery
// still ends with the catcher resuming the thread.
func TestExceptionDeliveryRetriesInjectedInterrupts(t *testing.T) {
	h := newHarness(t)
	iosSyscalls(h)
	in := fault.NewInjector(fault.Plan{Name: "exc-eintr", Seed: 0xc1de4, Rules: []fault.Rule{
		{Op: fault.OpMachSend, Match: "send", Errno: 1, Count: 2},
		{Op: fault.OpMachRecv, Match: "recv", Errno: 1, Count: 1},
	}})
	h.k.EnableFaults(in)
	resumed := false
	h.runProcs(t, func(th *kernel.Thread) {
		excPort, kr := h.ipc.PortAllocate(th)
		if kr != KernSuccess {
			t.Errorf("PortAllocate: %#x", kr)
			return
		}
		if kr := h.ipc.TaskSetExceptionPort(th, excPort); kr != KernSuccess {
			t.Errorf("TaskSetExceptionPort: %#x", kr)
			return
		}
		th.SpawnThread("catcher", func(ct *kernel.Thread) {
			for {
				msg, kr := h.ipc.Receive(ct, excPort, 100*time.Millisecond)
				if kr == MachRcvInterrupted {
					continue
				}
				if kr != KernSuccess || msg.ID != MsgExceptionRaise {
					return
				}
				kr = MachSendInterrupted
				for kr == MachSendInterrupted {
					kr = h.ipc.Send(ct, msg.ReplyName,
						&Message{ID: MsgExceptionReply, Body: []byte{ExcHandled}}, -1)
				}
				return
			}
		})
		crashSelf(th, kernel.SIGSEGV)
		resumed = true
	})
	if !resumed {
		t.Fatal("injected interrupts defeated bounded retry; thread died")
	}
	if in.Fired() != 3 {
		t.Fatalf("injected %d faults, want 3 (2 send + 1 recv)", in.Fired())
	}
	if err := h.k.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}
