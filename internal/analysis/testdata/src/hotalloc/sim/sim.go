// Fixture for hotalloc: direct allocation sites, amortized-growth
// exemptions, transitive (witness-chained) allocation through callees,
// and the cold-path allow escape hatch.
package sim

type Proc struct {
	buf  []int
	seen map[int]int
}

//hot:noalloc
func Direct(p *Proc) {
	p.buf = make([]int, 4) // want `hotalloc: allocation in //hot:noalloc Direct: make`
}

// Amortized growth is exempt by policy: append and map insert reallocate
// only on growth.
//
//hot:noalloc
func Amortized(p *Proc, x int) {
	p.buf = append(p.buf, x)
	p.seen[x] = x
}

func helper() *Proc {
	return &Proc{}
}

//hot:noalloc
func Indirect(p *Proc) {
	helper() // want `hotalloc: //hot:noalloc Indirect calls helper, which may allocate: &composite literal`
}

func mid() *Proc { return helper() }

//hot:noalloc
func Via() {
	mid() // want `hotalloc: //hot:noalloc Via calls mid, which may allocate: &composite literal \(via helper\)`
}

//hot:noalloc
func Closure(p *Proc) {
	f := func() { p.buf = nil } // want `hotalloc: allocation in //hot:noalloc Closure: func literal`
	f()
}

//hot:noalloc
func Concat(a, b string) string {
	return a + b // want `hotalloc: allocation in //hot:noalloc Concat: string concatenation`
}

// ColdPath justifies its one-time lazy allocation; the allow both
// suppresses the finding here and keeps callers untainted.
//
//hot:noalloc
func ColdPath(p *Proc) {
	if p.buf == nil {
		//lint:allow hotalloc: fixture: one-time lazy allocation on the cold path
		p.buf = make([]int, 0, 8)
	}
}

//hot:noalloc
func CallsColdPath(p *Proc) {
	ColdPath(p)
}

// ColdCall justifies a cold call into an allocating callee; like a
// direct cold site, the allow suppresses the finding here and keeps
// callers untainted.
//
//hot:noalloc
func ColdCall(p *Proc) {
	if p.buf == nil {
		//lint:allow hotalloc: fixture: one-time construction on the cold path
		helper()
	}
}

//hot:noalloc
func CallsColdCall(p *Proc) {
	ColdCall(p)
}

// unannotated may allocate freely.
func unannotated() []int {
	return make([]int, 1)
}

// Freelist pop-or-refill: the hot-object pooling idiom (WaitQueue waiters,
// Mach IPC rights). The refill allocation is cold once the pool warms up,
// so it rides under an allow; without one it must be flagged.
type pooled struct {
	next *pooled
}

type pool struct {
	free *pooled
}

//hot:noalloc
func (p *pool) GetAllowed() *pooled {
	r := p.free
	if r == nil {
		//lint:allow hotalloc: fixture: freelist refill — steady state recycles
		r = &pooled{}
	} else {
		p.free = r.next
	}
	r.next = nil
	return r
}

//hot:noalloc
func (p *pool) GetBare() *pooled {
	r := p.free
	if r == nil {
		r = &pooled{} // want `hotalloc: allocation in //hot:noalloc GetBare: &composite literal`
	} else {
		p.free = r.next
	}
	r.next = nil
	return r
}

//hot:noalloc
func (p *pool) Put(r *pooled) {
	r.next = p.free
	p.free = r
}

// Interning: a map probe keyed by string(b) is compiled to an
// allocation-free lookup, but the analyzer cannot know that — the probe
// needs an allow, and the materializing conversion is a real allocation
// that must be flagged when bare.
type interner map[string]string

//hot:noalloc
func (it interner) LookupAllowed(b []byte) (string, bool) {
	//lint:allow hotalloc: fixture: map index on string(b) is an allocation-free lookup
	s, ok := it[string(b)]
	return s, ok
}

//hot:noalloc
func (it interner) MaterializeBare(b []byte) string {
	return string(b) // want `hotalloc: allocation in //hot:noalloc MaterializeBare: string/\[\]byte conversion`
}

// Decision interception (the record/replay hook pattern): the Decider
// is consulted through an interface value, which the analyzer assumes
// allocation-free — the policy implementation (recorder, explorer)
// owns its own allocation discipline. Candidate enumeration reuses a
// scratch slice, so the append rides the amortized-growth exemption
// and the whole decided path stays hot-clean without an allow.
type decider interface {
	Decide(kind int, where string, n int) int
}

type sched struct {
	d     decider
	cands []*Proc
}

//hot:noalloc
func (s *sched) pickDecided(a, b *Proc) *Proc {
	s.cands = s.cands[:0]
	s.cands = append(s.cands, a, b)
	idx := s.d.Decide(0, "ready", len(s.cands))
	if idx < 0 || idx >= len(s.cands) {
		idx = 0
	}
	return s.cands[idx]
}

//hot:noalloc
func (s *sched) pickDecidedBare(a, b *Proc) *Proc {
	cands := []*Proc{a, b} // want `hotalloc: allocation in //hot:noalloc pickDecidedBare: slice literal`
	return cands[s.d.Decide(0, "ready", len(cands))]
}

// two reaches helper's allocation both through mid and directly; the
// witness is the shortest chain, whatever order the functions are
// visited in.
func two() {
	mid()
	helper()
}

//hot:noalloc
func Hot() {
	two() // want `hotalloc: //hot:noalloc Hot calls two, which may allocate: &composite literal \(via helper\)`
}

// coldBare's allow has no colon or reason, so it is not a directive: it
// neither suppresses anything nor keeps callers untainted.
func coldBare() []int {
	//lint:allow hotalloc // want `ciderlint: malformed directive`
	return make([]int, 8)
}

//hot:noalloc
func CallsColdBare() {
	coldBare() // want `hotalloc: //hot:noalloc CallsColdBare calls coldBare, which may allocate: make`
}
