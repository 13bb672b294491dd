package lru

import (
	"math/rand"
	"testing"
)

// TestTouchMatchesMoveToFront drives every set width from 1 to MaxWays
// with random touches and checks the packed order against a slice-based
// move-to-front model after each one: the whole order, and the victim
// Way(0) a full set would evict.
func TestTouchMatchesMoveToFront(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for ways := 1; ways <= MaxWays; ways++ {
		o := NewOrder(ways)
		model := make([]int, ways) // least recent first
		for w := range model {
			model[w] = w
		}
		for step := 0; step < 20000; step++ {
			if !o.Valid(ways) {
				t.Fatalf("ways %d step %d: order %#x is not a permutation", ways, step, uint64(o))
			}
			for r, w := range model {
				if got := o.Way(r); got != w {
					t.Fatalf("ways %d step %d: rank %d holds way %d, model says %d (order %#x, model %v)",
						ways, step, r, got, w, uint64(o), model)
				}
			}
			// Bias towards the ranks at both ends, where the shifts and
			// masks reach their limits.
			var way int
			switch rng.Intn(4) {
			case 0:
				way = model[0]
			case 1:
				way = model[ways-1]
			default:
				way = rng.Intn(ways)
			}
			o = o.Touch(way, ways)
			for r, w := range model {
				if w == way {
					model = append(append(model[:r:r], model[r+1:]...), way)
					break
				}
			}
		}
	}
}

// TestNewOrderIsIdentity pins the starting order: way w at rank w.
func TestNewOrderIsIdentity(t *testing.T) {
	for ways := 1; ways <= MaxWays; ways++ {
		o := NewOrder(ways)
		for r := 0; r < ways; r++ {
			if o.Way(r) != r {
				t.Fatalf("NewOrder(%d) rank %d holds way %d", ways, r, o.Way(r))
			}
		}
	}
}

// TestValidRejects covers each way a word can fail to be a set's order.
func TestValidRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    Order
		ways int
	}{
		{"repeated way", 0x3220, 4},
		{"way out of range", 0x4210, 4},
		{"stray upper field", NewOrder(4) | 1<<16, 4},
		{"zero ways", 0, 0},
		{"too many ways", NewOrder(MaxWays), MaxWays + 1},
	} {
		if tc.o.Valid(tc.ways) {
			t.Errorf("%s: Valid(%d) accepted %#x", tc.name, tc.ways, uint64(tc.o))
		}
	}
	if !NewOrder(MaxWays).Valid(MaxWays) {
		t.Error("the 16-way identity order is not Valid")
	}
}
