package partition

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is moveHeap's ordering behind container/heap's interface: the
// reference the typed sift steps must match.
type refHeap []moveCand

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].gain > h[j].gain }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(moveCand)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestMoveHeapMatchesContainerHeap pins the tie order the placement
// depends on: on seeded random init/push/pop sequences whose gains take
// a handful of values, so most comparisons are ties, the typed heap pops
// the same entries in the same order as container/heap and holds the
// same array after every step.
func TestMoveHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	gain := func() float64 { return float64(rng.Intn(5) - 2) }
	for trial := 0; trial < 300; trial++ {
		var got moveHeap
		var want refHeap
		node := 0
		for i := rng.Intn(40); i > 0; i-- {
			c := moveCand{node: node, gain: gain()}
			node++
			got = append(got, c)
			want = append(want, c)
		}
		got.init()
		heap.Init(&want)
		for step := 0; step < 200; step++ {
			if len(want) > 0 && rng.Intn(3) == 0 {
				g, w := got.pop(), heap.Pop(&want).(moveCand)
				if g != w {
					t.Fatalf("trial %d step %d: pop %+v, container/heap pops %+v", trial, step, g, w)
				}
			} else {
				c := moveCand{node: node, gain: gain()}
				node++
				got.push(c)
				heap.Push(&want, c)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d step %d: %d entries, container/heap holds %d", trial, step, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d step %d: slot %d holds %+v, container/heap %+v", trial, step, i, got[i], want[i])
				}
			}
		}
		for len(want) > 0 {
			if g, w := got.pop(), heap.Pop(&want).(moveCand); g != w {
				t.Fatalf("trial %d drain: pop %+v, container/heap pops %+v", trial, g, w)
			}
		}
	}
}
