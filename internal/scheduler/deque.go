package scheduler

import "sync"

// stealDeque is one worker's ready queue: a mutex-guarded growable ring
// indexed by monotone head/tail sequences. The owning worker pushes and
// pops at the bottom (LIFO — the task it just made runnable is the one
// whose link buffers are hottest in cache) and requeues quantum-exhausted
// tasks at the top so they drain in FIFO order; thieves take batches from
// the top, the coldest work the owner would reach last.
//
// A mutex (rather than the Chase–Lev lock-free deque) is deliberate: every
// deque operation here amortizes over a full step quantum of kernel work
// (64 Steps), so the lock is nowhere near the hot path, and the mutex
// gives pushTop and batched stealInto for free — both awkward on Chase–Lev.
// The locking discipline is that no caller ever holds two deque locks:
// stealInto moves tasks through a caller-owned scratch slice in two
// critical sections.
type stealDeque struct {
	mu   sync.Mutex
	buf  []*wsTask
	mask uint64
	head uint64 // sequence of the top (oldest) element
	tail uint64 // sequence one past the bottom (newest) element
}

func newStealDeque(capHint int) *stealDeque {
	p := 8
	for p < capHint {
		p <<= 1
	}
	return &stealDeque{buf: make([]*wsTask, p), mask: uint64(p - 1)}
}

// size returns the current length. Callers must hold d.mu.
func (d *stealDeque) size() int { return int(d.tail - d.head) }

// grow doubles the ring. Callers must hold d.mu.
func (d *stealDeque) grow() { d.resize(len(d.buf) * 2) }

// reserve makes room for n more tasks in at most one allocation.
func (d *stealDeque) reserve(n int) {
	d.mu.Lock()
	if need := d.size() + n; need > len(d.buf) {
		p := len(d.buf)
		for p < need {
			p <<= 1
		}
		d.resize(p)
	}
	d.mu.Unlock()
}

// resize moves the ring into a new one of p (a power of two, at least the
// size) slots. Callers must hold d.mu.
func (d *stealDeque) resize(p int) {
	nb := make([]*wsTask, p)
	nm := uint64(len(nb) - 1)
	for s := d.head; s != d.tail; s++ {
		nb[s&nm] = d.buf[s&d.mask]
	}
	d.buf, d.mask = nb, nm
}

// pushBottom appends t at the bottom (newest end).
func (d *stealDeque) pushBottom(t *wsTask) {
	d.mu.Lock()
	if d.size() == len(d.buf) {
		d.grow()
	}
	d.buf[d.tail&d.mask] = t
	d.tail++
	d.mu.Unlock()
}

// pushTop inserts t at the top (oldest end) — the fairness requeue for a
// task that exhausted its quantum: it runs again only after everything
// already waiting.
func (d *stealDeque) pushTop(t *wsTask) {
	d.mu.Lock()
	if d.size() == len(d.buf) {
		d.grow()
	}
	d.head--
	d.buf[d.head&d.mask] = t
	d.mu.Unlock()
}

// popBottom removes and returns the newest task, or nil when empty.
func (d *stealDeque) popBottom() *wsTask {
	d.mu.Lock()
	if d.head == d.tail {
		d.mu.Unlock()
		return nil
	}
	d.tail--
	t := d.buf[d.tail&d.mask]
	d.buf[d.tail&d.mask] = nil
	d.mu.Unlock()
	return t
}

// stealInto moves up to max tasks — at most half the victim's queue,
// rounded up — from d's top into dst, returning how many moved. scratch
// must have capacity >= max; it only buffers the tasks between the two
// critical sections so neither lock is held while the other is taken.
func (d *stealDeque) stealInto(dst *stealDeque, max int, scratch []*wsTask) int {
	if max <= 0 {
		return 0
	}
	d.mu.Lock()
	n := (d.size() + 1) / 2
	if n > max {
		n = max
	}
	for i := 0; i < n; i++ {
		scratch[i] = d.buf[d.head&d.mask]
		d.buf[d.head&d.mask] = nil
		d.head++
	}
	d.mu.Unlock()
	if n == 0 {
		return 0
	}
	dst.mu.Lock()
	for dst.size()+n > len(dst.buf) {
		dst.grow()
	}
	for i := 0; i < n; i++ {
		dst.buf[dst.tail&dst.mask] = scratch[i]
		dst.tail++
		scratch[i] = nil
	}
	dst.mu.Unlock()
	return n
}
