// Fixture for lockorder: parking with a lock held (directly, via a
// callee, and via channel ops) and an acquisition-order cycle.
package xnu

import "lockorder/sim"

type IPC struct {
	lock sim.LckMtx
	q    *sim.WaitQueue
}

// BadWait parks on the queue while holding the IPC lock.
func (i *IPC) BadWait(p *sim.Proc) {
	i.lock.Lock(p)
	i.q.Wait(p) // want `lockorder: call to Wait may park the Proc while holding lock IPC\.lock`
	i.lock.Unlock(p)
}

// blockHelper parks transitively; the fixpoint marks it may-block.
func blockHelper(p *sim.Proc) { p.Park("helper") }

// BadIndirect reaches the park through a callee, with a deferred unlock
// keeping the lock held to the end of the body.
func (i *IPC) BadIndirect(p *sim.Proc) {
	i.lock.Lock(p)
	defer i.lock.Unlock(p)
	blockHelper(p) // want `lockorder: call to blockHelper may park the Proc while holding lock IPC\.lock`
}

// BadChan performs raw channel operations inside the held region.
func (i *IPC) BadChan(p *sim.Proc, ch chan int) {
	i.lock.Lock(p)
	ch <- 1 // want `lockorder: channel send while holding lock IPC\.lock`
	<-ch    // want `lockorder: channel receive while holding lock IPC\.lock`
	i.lock.Unlock(p)
}

// Good charges and waits only outside the held region: contention-safe.
func (i *IPC) Good(p *sim.Proc) {
	i.lock.Lock(p)
	p.Advance(10) // Advance under a lock is contention, not a park
	i.lock.Unlock(p)
	i.q.Wait(p)
}

// Two lock classes acquired in opposite orders: the order graph gets
// A.mu→B.mu from order1 and B.mu→A.mu from order2, a cycle.
type A struct{ mu sim.LckMtx }

type B struct{ mu sim.LckMtx }

func order1(p *sim.Proc, a *A, b *B) {
	a.mu.Lock(p)
	b.mu.Lock(p)
	b.mu.Unlock(p)
	a.mu.Unlock(p)
}

func order2(p *sim.Proc, a *A, b *B) {
	b.mu.Lock(p)
	a.mu.Lock(p) // want `lockorder: lock-order cycle: A\.mu → B\.mu → A\.mu`
	a.mu.Unlock(p)
	b.mu.Unlock(p)
}

// Three lock classes: HoldA orders a before b and c through takeBC,
// takeBC and BthenC order b before c, and CthenA closes the loop. Both a→b→c→a and
// a→c→a are cycles; edges leave a lock in sorted order, so the longer one
// is the one reported.
type S struct{ a, b, c sim.LckMtx }

func takeBC(p *sim.Proc, s *S) {
	s.b.Lock(p)
	s.c.Lock(p)
	s.c.Unlock(p)
	s.b.Unlock(p)
}

func HoldA(p *sim.Proc, s *S) {
	s.a.Lock(p)
	takeBC(p, s)
	s.a.Unlock(p)
}

func BthenC(p *sim.Proc, s *S) {
	s.b.Lock(p)
	s.c.Lock(p)
	s.c.Unlock(p)
	s.b.Unlock(p)
}

func CthenA(p *sim.Proc, s *S) {
	s.c.Lock(p)
	s.a.Lock(p) // want `lockorder: lock-order cycle: S\.a → S\.b → S\.c → S\.a`
	s.a.Unlock(p)
	s.c.Unlock(p)
}
