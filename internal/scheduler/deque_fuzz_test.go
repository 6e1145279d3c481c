package scheduler

import (
	"testing"
)

// modelDeque is the reference implementation FuzzStealDeque checks
// stealDeque against: a plain slice whose front is the top (oldest end)
// and whose back is the bottom (newest end).
type modelDeque []int

func (m *modelDeque) pushBottom(v int) { *m = append(*m, v) }
func (m *modelDeque) pushTop(v int)    { *m = append([]int{v}, *m...) }
func (m *modelDeque) popBottom() (int, bool) {
	if len(*m) == 0 {
		return 0, false
	}
	v := (*m)[len(*m)-1]
	*m = (*m)[:len(*m)-1]
	return v, true
}
func (m *modelDeque) stealInto(dst *modelDeque, max int) int {
	n := (len(*m) + 1) / 2
	if n > max {
		n = max
	}
	for i := 0; i < n; i++ {
		*dst = append(*dst, (*m)[i])
	}
	*m = (*m)[n:]
	return n
}

// FuzzStealDeque drives two stealDeques through a randomized interleaving
// of push/pop/steal operations, mirrored on model deques, and fails on any
// divergence in returned values, steal counts or final contents. Task
// identity is encoded in wsTask.home.
func FuzzStealDeque(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 0, 3, 2, 1})
	f.Add([]byte{3, 3, 3, 3})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 2, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		real := [2]*stealDeque{newStealDeque(4), newStealDeque(4)}
		model := [2]modelDeque{}
		scratch := make([]*wsTask, 4)
		next := 0
		for _, op := range ops {
			d := int(op>>2) & 1 // acting deque
			o := (d + 1) % 2    // the other one
			switch op & 3 {
			case 0: // pushBottom
				real[d].pushBottom(&wsTask{home: next})
				model[d].pushBottom(next)
				next++
			case 1: // pushTop
				real[d].pushTop(&wsTask{home: next})
				(&model[d]).pushTop(next)
				next++
			case 2: // popBottom
				rt := real[d].popBottom()
				mv, ok := (&model[d]).popBottom()
				if (rt != nil) != ok {
					t.Fatalf("popBottom presence mismatch: real=%v model ok=%v", rt, ok)
				}
				if rt != nil && rt.home != mv {
					t.Fatalf("popBottom value: real=%d model=%d", rt.home, mv)
				}
			case 3: // steal d -> other
				max := 1 + int(op>>3)&3
				rn := real[d].stealInto(real[o], max, scratch[:max])
				mn := (&model[d]).stealInto(&model[o], max)
				if rn != mn {
					t.Fatalf("steal moved %d, model moved %d", rn, mn)
				}
			}
		}
		// Drain both and compare full remaining contents in pop order.
		for d := 0; d < 2; d++ {
			for {
				rt := real[d].popBottom()
				mv, ok := (&model[d]).popBottom()
				if (rt != nil) != ok {
					t.Fatalf("drain presence mismatch on deque %d", d)
				}
				if rt == nil {
					break
				}
				if rt.home != mv {
					t.Fatalf("drain value on deque %d: real=%d model=%d", d, rt.home, mv)
				}
			}
		}
	})
}
