// Stand-in abi (XNU persona) package for the xlatecheck fixture: XNU trap
// numbers, the wrap registration closure, and trap-feeding helpers whose
// parameter requirements export to other packages.
package abi

import "xlatecheck/kernel"

// XNU-domain trap numbers, flag bits, and rlimit resource numbers (XNU
// says RLIMIT_NOFILE is 8 where Linux says 7).
const (
	XNUKillTrap     = 37
	XNUOCreat       = 0x200
	XNUSetrlimit    = 195
	XNURLimitNoFile = 8
)

// wrap mirrors the real abi package's forwarding closure shape:
// (xnuNum, linuxNum, name, transform).
func wrap(xnuNum, linuxNum int, name string, xform func(*uint64)) {
	_ = xnuNum + linuxNum
	_ = name
	_ = xform
}

func install() {
	// The PR 6 open(O_CREAT) shape: a payload-carrying syscall wrapped
	// with a nil transform forwards raw XNU flag bits to the Linux
	// implementation.
	wrap(5, 5, "open", nil) // want `xlatecheck: syscall "open" carries persona-numbered payloads but is wrapped with a nil transform`

	// close carries no persona-numbered payload; nil is fine.
	wrap(6, 6, "close", nil)

	// kill with a real transform is the fixed shape.
	wrap(37, 62, "kill", func(a *uint64) { *a = uint64(kernel.SignalFromXNU(int(*a))) })

	// rlimit resource numbers are persona payloads too: a nil transform
	// would read or cap the wrong resource (XNU 8 is NOFILE, Linux 8 is
	// MEMLOCK).
	wrap(194, 191, "getrlimit", nil) // want `xlatecheck: syscall "getrlimit" carries persona-numbered payloads but is wrapped with a nil transform`
	wrap(195, 75, "setrlimit", func(a *uint64) { *a = uint64(kernel.RlimitFromXNU(int(*a))) })
}

// Kill feeds its sig parameter into an XNU trap, so call sites must pass
// XNU numbering: the requirement is exported to importing packages.
func Kill(t *kernel.Thread, pid, sig int) {
	_ = pid
	t.Syscall(XNUKillTrap, uint64(sig))
}

// DirectBad passes a Linux payload straight into an XNU trap.
func DirectBad(t *kernel.Thread) {
	t.Syscall(XNUKillTrap, uint64(kernel.SIGUSR1)) // want `xlatecheck: Linux payload SIGUSR1 flows into a XNU trap untranslated`
}

// DirectGood translates first.
func DirectGood(t *kernel.Thread) {
	t.Syscall(XNUKillTrap, uint64(kernel.SignalToXNU(kernel.SIGUSR1)))
}

// DirectSuppressed shows the allow machinery applies to xlatecheck.
func DirectSuppressed(t *kernel.Thread) {
	//lint:allow xlatecheck: fixture: raw path kept to exercise suppression
	t.Syscall(XNUKillTrap, uint64(kernel.SIGUSR1))
}

// generic serves both personas: its n parameter reaches a Linux trap and
// an XNU trap, so the requirement conflicts away and call sites are free.
func generic(t *kernel.Thread, n int) {
	t.Syscall(kernel.SysOpen, uint64(n))
	t.Syscall(XNUKillTrap, uint64(n))
}

// ConflictFree passes a Linux payload into the conflicted parameter: no
// requirement, no finding.
func ConflictFree(t *kernel.Thread) {
	generic(t, kernel.SIGUSR1)
}

// Setrlimit feeds its res parameter into the XNU setrlimit trap, so call
// sites must pass XNU resource numbering.
func Setrlimit(t *kernel.Thread, res int) {
	t.Syscall(XNUSetrlimit, uint64(res))
}

// RlimitDirectBad passes a canonical resource number into an XNU trap.
func RlimitDirectBad(t *kernel.Thread) {
	t.Syscall(XNUSetrlimit, uint64(kernel.RLimitNoFile)) // want `xlatecheck: Linux payload RLimitNoFile flows into a XNU trap untranslated`
}

// RlimitDirectGood renumbers at the boundary.
func RlimitDirectGood(t *kernel.Thread) {
	t.Syscall(XNUSetrlimit, uint64(kernel.RlimitToXNU(kernel.RLimitNoFile)))
}

// RlimitReverseBad forwards an XNU resource number to the Linux trap.
func RlimitReverseBad(t *kernel.Thread) {
	t.Syscall(kernel.SysSetrlimit, uint64(XNURLimitNoFile)) // want `xlatecheck: XNU payload XNURLimitNoFile flows into a Linux trap untranslated`
}

// RlimitInfinityFree: RLIM_INFINITY is domain-free and crosses freely.
func RlimitInfinityFree(t *kernel.Thread) {
	t.Syscall(XNUSetrlimit, kernel.RLimInfinity)
}

// h1 feeds x into a Linux trap and h2 into an XNU trap, so g's x serves
// both personas and f inherits that from g. A visit that sees h1's
// requirement before h2's must not leave f stuck on Linux: Use is clean
// in every order.
func h1(t *kernel.Thread, x int) { t.Syscall(kernel.SysOpen, uint64(x)) }

func h2(t *kernel.Thread, x int) { t.Syscall(XNUKillTrap, uint64(x)) }

func g(t *kernel.Thread, x int) {
	h1(t, x)
	h2(t, x)
}

func f(t *kernel.Thread, y int) { g(t, y) }

func Use(t *kernel.Thread) { f(t, XNUOCreat) }
