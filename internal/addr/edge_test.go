package addr

import "testing"

// TestPageBoundaryEdges pins the behaviour at the exact page boundaries,
// where an off-by-one in masking silently merges or splits neighbouring
// pages.
func TestPageBoundaryEdges(t *testing.T) {
	for _, s := range []PageSize{Page4K, Page2M, Page1G} {
		b := s.Bytes()
		last := VA(b - 1) // final byte of page 0
		first := VA(b)    // first byte of page 1
		if last.VPN(s) != 0 || first.VPN(s) != 1 {
			t.Errorf("%s: VPN across boundary = %d,%d; want 0,1", s, last.VPN(s), first.VPN(s))
		}
		if last.PageBase(s) != 0 || first.PageBase(s) != VA(b) {
			t.Errorf("%s: PageBase across boundary = %#x,%#x", s,
				uint64(last.PageBase(s)), uint64(first.PageBase(s)))
		}
		if last.Offset(s) != b-1 || first.Offset(s) != 0 {
			t.Errorf("%s: Offset across boundary = %#x,%#x", s, last.Offset(s), first.Offset(s))
		}
		// PageBase is idempotent and already offset-free.
		if got := last.PageBase(s).PageBase(s); got != last.PageBase(s) {
			t.Errorf("%s: PageBase not idempotent", s)
		}
	}
}

// TestTopOfCanonicalRange exercises the highest 48-bit canonical
// addresses: VPN extraction and Translate must round-trip with bit 47
// set, and Canonical must be a fixed point there.
func TestTopOfCanonicalRange(t *testing.T) {
	top := Canonical(1<<64 - 1) // 0x0000_FFFF_FFFF_FFFF
	if Canonical(uint64(top)) != top {
		t.Fatalf("Canonical not idempotent at %#x", uint64(top))
	}
	for _, s := range []PageSize{Page4K, Page2M} {
		wantVPN := ((uint64(1) << 48) - 1) >> s.Shift()
		if got := top.VPN(s); got != wantVPN {
			t.Errorf("%s: top VPN = %#x, want %#x", s, got, wantVPN)
		}
		h := Translate(top, wantVPN, s)
		if h.PFN(s) != wantVPN || uint64(h)&(s.Bytes()-1) != top.Offset(s) {
			t.Errorf("%s: Translate at top of range lost bits: %v", s, h)
		}
	}
	// Every radix index at the top address is the full 9-bit value.
	for l := PML4; l <= PT; l++ {
		if got := Index(top, l); got != 0x1FF {
			t.Errorf("Index(%v) at top = %#x, want 0x1ff", l, got)
		}
	}
}

// TestFromPFNMasksOversizedOffset documents that an offset larger than
// the page is truncated to the in-page bits rather than corrupting the
// frame number.
func TestFromPFNMasksOversizedOffset(t *testing.T) {
	for _, s := range []PageSize{Page4K, Page2M} {
		h := FromPFN(7, s, s.Bytes()+3) // 3 bytes past a full page
		if h.PFN(s) != 7 {
			t.Errorf("%s: oversized offset leaked into PFN: %v", s, h)
		}
		if uint64(h)&(s.Bytes()-1) != 3 {
			t.Errorf("%s: offset = %#x, want 3", s, uint64(h)&(s.Bytes()-1))
		}
	}
}

// TestLineEdges pins the 64 B line arithmetic at its boundaries.
func TestLineEdges(t *testing.T) {
	if HPA(63).Line() != 0 || HPA(64).Line() != 1 {
		t.Error("HPA line boundary at 64 B wrong")
	}
	if VA(63).Line() != 0 || VA(64).Line() != 1 {
		t.Error("VA line boundary at 64 B wrong")
	}
	if HPA(64).LineBase() != 64 || HPA(127).LineBase() != 64 {
		t.Error("LineBase of second line wrong")
	}
	// A 4 KB page is exactly 64 lines; the last line of page 0 and the
	// first line of page 1 must differ.
	if VA(Bytes4K-1).Line() == VA(Bytes4K).Line() {
		t.Error("page boundary fell inside one line")
	}
}

// TestMisclassifiedSize documents what happens when a VPN computed at one
// page size is reused at the other — the failure mode the POM-TLB's
// dual-partition probing must avoid. The values differ by exactly the
// shift delta, so confusing them is always detectable.
func TestMisclassifiedSize(t *testing.T) {
	v := VA(0x1234_5678_9000)
	small, large := v.VPN(Page4K), v.VPN(Page2M)
	if small>>(Shift2M-Shift4K) != large {
		t.Errorf("VPN(4K)>>9 = %#x, VPN(2M) = %#x; sizes disagree", small>>9, large)
	}
	// Translating with a frame number from the wrong size class changes
	// the address: the offsets differ whenever the address is not 2 MB
	// aligned.
	if Translate(v, 1, Page4K) == Translate(v, 1, Page2M) {
		t.Error("4K and 2M translations of an unaligned address collided")
	}
}

// FuzzAddrPacking fuzzes the address packing round trips: Translate /
// PFN / Offset / PageBase must agree for every canonical address, frame
// number and page size, and the radix indices must always rebuild the
// 4 KB VPN.
func FuzzAddrPacking(f *testing.F) {
	f.Add(uint64(0), uint64(0), false)
	f.Add(uint64(0xFFFF_FFFF_FFFF_FFFF), uint64(1)<<40-1, true)
	f.Add(uint64(0x7fff_1234_5678), uint64(0x42), false)
	f.Add(uint64(Bytes2M-1), uint64(99), true)
	f.Fuzz(func(t *testing.T, raw, pfn uint64, large bool) {
		s := Page4K
		if large {
			s = Page2M
		}
		v := Canonical(raw)
		if uint64(v.PageBase(s))+v.Offset(s) != uint64(v) {
			t.Fatalf("PageBase+Offset != VA for %v at %s", v, s)
		}
		h := Translate(v, pfn, s)
		if got := uint64(h) & (s.Bytes() - 1); got != v.Offset(s) {
			t.Fatalf("Translate dropped offset: %#x != %#x", got, v.Offset(s))
		}
		if wantPFN := pfn & (^uint64(0) >> s.Shift()); h.PFN(s) != wantPFN {
			t.Fatalf("PFN round trip: %#x != %#x", h.PFN(s), wantPFN)
		}
		if h2 := FromPFN(h.PFN(s), s, v.Offset(s)); h2 != h {
			t.Fatalf("FromPFN(PFN, Offset) = %v, want %v", h2, h)
		}
		var rebuilt uint64
		for l := PML4; l <= PT; l++ {
			rebuilt = rebuilt<<9 | Index(v, l)
		}
		if rebuilt != v.VPN(Page4K) {
			t.Fatalf("radix indices rebuild %#x, want %#x", rebuilt, v.VPN(Page4K))
		}
	})
}
