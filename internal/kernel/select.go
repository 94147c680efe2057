package kernel

import (
	"time"

	"repro/internal/sim"
)

// SelectRequest describes one select(2) invocation.
type SelectRequest struct {
	// ReadFDs and WriteFDs are the descriptor sets to test.
	ReadFDs  []int
	WriteFDs []int
	// Timeout < 0 blocks forever; 0 polls; > 0 bounds the wait.
	Timeout time.Duration
}

// SelectResult reports ready descriptors.
type SelectResult struct {
	ReadReady  []int
	WriteReady []int
}

// N returns the total number of ready descriptors.
func (r *SelectResult) N() int { return len(r.ReadReady) + len(r.WriteReady) }

// selectInternal implements select(2): scan the sets (charging the per-fd
// cost the lmbench select test measures), and block on every referenced
// file's poll queue until something becomes ready.
func (t *Thread) selectInternal(req *SelectRequest) (*SelectResult, Errno) {
	k := t.k
	nfds := len(req.ReadFDs) + len(req.WriteFDs)
	if k.costs.SelectMaxFDs > 0 && nfds >= k.costs.SelectMaxFDs {
		// The iPad mini's kernel "simply failed to complete for 250 file
		// descriptors" (Section 6.2).
		return nil, EINVAL
	}
	deadline := time.Duration(-1)
	if req.Timeout >= 0 {
		deadline = t.proc.Now() + req.Timeout
	}
	for {
		t.Charge(k.costs.SelectBase + time.Duration(nfds)*k.costs.SelectPerFD)
		res, queues, bad := t.scanSelect(req, true)
		if bad {
			return nil, EBADF
		}
		if res.N() > 0 {
			return res, OK
		}
		if req.Timeout == 0 {
			return res, OK // poll: nothing ready
		}
		// Nothing ready: wait on every queue at once.
		for _, q := range queues {
			q.Enqueue(t.proc)
		}
		var tag int
		timedOut := false
		if deadline >= 0 {
			remain := deadline - t.proc.Now()
			if remain < 0 {
				remain = 0
			}
			tag = t.proc.Sleep(remain)
			timedOut = tag == sim.WakeNormal && t.proc.Now() >= deadline
		} else {
			tag = t.proc.Park("select")
		}
		for _, q := range queues {
			q.Dequeue(t.proc)
		}
		if tag == sim.WakeInterrupted {
			return nil, EINTR
		}
		if timedOut {
			// A queue wake can race the deadline: a WakeNormal arriving at
			// or after the deadline instant looks identical to timer expiry,
			// but an fd may have become ready. Rescan once so that ready fd
			// is reported instead of dropped. The rescan is deliberately
			// uncharged — a true timeout must cost exactly what it did
			// before this fix (benchmark virtual times are bit-identical),
			// and the racing waker's readiness check rides on the scan cost
			// already charged this iteration.
			res, _, bad = t.scanSelect(req, false)
			if bad {
				return nil, EBADF
			}
			return res, OK
		}
	}
}

// scanSelect performs one readiness pass over the request's descriptor
// sets. When collectQueues is set it also gathers the wait queues to
// block on, asking each file only for the queues matching the interest
// it was polled with (read-interest must not enqueue on write-side
// queues, and vice versa). bad reports a dangling descriptor.
func (t *Thread) scanSelect(req *SelectRequest, collectQueues bool) (res *SelectResult, queues []*sim.WaitQueue, bad bool) {
	res = &SelectResult{}
	scan := func(fds []int, want PollMask, out *[]int) {
		for _, fd := range fds {
			f, errno := t.task.fds.Get(fd)
			if errno != OK {
				bad = true
				return
			}
			if f.Poll()&(want|PollHup) != 0 {
				*out = append(*out, fd)
			}
			if collectQueues {
				queues = append(queues, f.PollQueues(want)...)
			}
		}
	}
	scan(req.ReadFDs, PollIn, &res.ReadReady)
	scan(req.WriteFDs, PollOut, &res.WriteReady)
	return res, queues, bad
}
