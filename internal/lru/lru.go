// Package lru keeps the exact true-LRU order of one set of a
// set-associative structure in a single word.
//
// An Order holds the set's way numbers in 4-bit fields, ranked from the
// least recently used way at bits 0-3 to the most recently used way at
// rank ways-1; the fields above rank ways-1 stay zero. A hit or fill
// moves its way to the top rank with a branch-free SWAR update, and a
// fill into a full set reads its victim from rank 0, so neither needs a
// scan of per-way stamps. Four bits per way is why a set may have at
// most MaxWays ways.
package lru

import (
	"errors"
	"math/bits"
)

// MaxWays is the widest set an Order can rank: 16 ways of 4 bits fill
// the 64-bit word.
const MaxWays = 16

// ErrTooManyWays is the error the Validate of every structure that keeps
// an Order per set wraps for a set wider than MaxWays: its ways would not
// fit the word. Every Table 1 structure has at most 16 ways, so only a
// hand-written configuration file can ask for more.
var ErrTooManyWays = errors.New("ways exceed the 16-way limit of a set's recency word")

const (
	ones  = 0x1111111111111111 // 1 in every nibble
	highs = 0x8888888888888888 // the top bit of every nibble
)

// Order is the recency order of one set's ways, least recent first.
type Order uint64

// NewOrder returns the identity order of a set of ways ways: way 0 is the
// least recently used, way ways-1 the most.
func NewOrder(ways int) Order {
	var o Order
	for w := ways - 1; w >= 0; w-- {
		o = o<<4 | Order(w)
	}
	return o
}

// Touch returns the order with way moved to the most recently used rank,
// ways-1, and the ways above its old rank each moved down one rank.
func (o Order) Touch(way, ways int) Order {
	// XOR zeroes the nibble that holds way. The lowest zero nibble of x
	// is the first one whose top bit survives x-ones &^ x: no nibble
	// below it borrows. Fields above rank ways-1 may also read as zero,
	// but way is found below them.
	x := uint64(o) ^ uint64(way)*ones
	shift := uint(bits.TrailingZeros64((x-ones)&^x&highs)) &^ 3
	below := uint64(o) & (1<<shift - 1)
	above := uint64(o) >> shift >> 4 << shift
	return Order(below | above | uint64(way)<<(4*uint(ways-1)))
}

// Way returns the way at rank; rank 0 is the least recently used way.
func (o Order) Way(rank int) int { return int(o >> (4 * uint(rank)) & 0xF) }

// Valid reports whether o ranks every one of ways ways exactly once and
// leaves the fields above rank ways-1 zero.
func (o Order) Valid(ways int) bool {
	if ways < 1 || ways > MaxWays {
		return false
	}
	var seen uint16
	for r := 0; r < ways; r++ {
		w := o.Way(r)
		if w >= ways || seen&(1<<w) != 0 {
			return false
		}
		seen |= 1 << w
	}
	return o>>(4*uint(ways)) == 0 // a shift of 64 yields 0
}
