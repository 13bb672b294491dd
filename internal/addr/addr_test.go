package addr

import (
	"testing"
	"testing/quick"
)

func TestPageSizeShift(t *testing.T) {
	if Page4K.Shift() != 12 {
		t.Errorf("Page4K.Shift() = %d, want 12", Page4K.Shift())
	}
	if Page2M.Shift() != 21 {
		t.Errorf("Page2M.Shift() = %d, want 21", Page2M.Shift())
	}
	if Page4K.Bytes() != 4096 {
		t.Errorf("Page4K.Bytes() = %d, want 4096", Page4K.Bytes())
	}
	if Page2M.Bytes() != 2<<20 {
		t.Errorf("Page2M.Bytes() = %d, want %d", Page2M.Bytes(), 2<<20)
	}
}

func TestPageSizeString(t *testing.T) {
	if got := Page4K.String(); got != "4KB" {
		t.Errorf("Page4K.String() = %q", got)
	}
	if got := Page2M.String(); got != "2MB" {
		t.Errorf("Page2M.String() = %q", got)
	}
}

func TestPageSizeOther(t *testing.T) {
	if Page4K.Other() != Page2M {
		t.Error("Page4K.Other() != Page2M")
	}
	if Page2M.Other() != Page4K {
		t.Error("Page2M.Other() != Page4K")
	}
}

func TestVPN(t *testing.T) {
	v := VA(0x7fff_1234_5678)
	if got := v.VPN(Page4K); got != 0x7fff_1234_5678>>12 {
		t.Errorf("VPN(4K) = %#x", got)
	}
	if got := v.VPN(Page2M); got != 0x7fff_1234_5678>>21 {
		t.Errorf("VPN(2M) = %#x", got)
	}
}

func TestPageBaseAndOffset(t *testing.T) {
	v := VA(0x1234_5FFF)
	if got := v.PageBase(Page4K); got != VA(0x1234_5000) {
		t.Errorf("PageBase(4K) = %#x", uint64(got))
	}
	if got := v.Offset(Page4K); got != 0xFFF {
		t.Errorf("Offset(4K) = %#x", got)
	}
	base2m := v.PageBase(Page2M)
	if uint64(base2m)%Page2M.Bytes() != 0 {
		t.Errorf("PageBase(2M) = %#x not 2MB aligned", uint64(base2m))
	}
}

func TestTranslatePreservesOffset(t *testing.T) {
	v := VA(0xdead_beef)
	h := Translate(v, 0x42, Page4K)
	if h.PFN(Page4K) != 0x42 {
		t.Errorf("Translate PFN = %#x, want 0x42", h.PFN(Page4K))
	}
	if uint64(h)&0xFFF != uint64(v)&0xFFF {
		t.Errorf("offset not preserved: %#x vs %#x", uint64(h)&0xFFF, uint64(v)&0xFFF)
	}
}

func TestFromPFN(t *testing.T) {
	h := FromPFN(0x99, Page2M, 0x1_0042)
	if h.PFN(Page2M) != 0x99 {
		t.Errorf("FromPFN PFN = %#x", h.PFN(Page2M))
	}
	if uint64(h)&(Page2M.Bytes()-1) != 0x1_0042 {
		t.Errorf("FromPFN offset = %#x", uint64(h)&(Page2M.Bytes()-1))
	}
}

func TestLevelIndexShift(t *testing.T) {
	want := map[Level]uint{PML4: 39, PDPT: 30, PD: 21, PT: 12}
	for l, shift := range want {
		if got := l.indexShift(); got != shift {
			t.Errorf("%v.indexShift() = %d, want %d", l, got, shift)
		}
	}
}

func TestIndexExtraction(t *testing.T) {
	// Construct an address with known indices: PML4=1, PDPT=2, PD=3, PT=4.
	v := VA(1<<39 | 2<<30 | 3<<21 | 4<<12 | 0x5)
	if got := Index(v, PML4); got != 1 {
		t.Errorf("Index(PML4) = %d", got)
	}
	if got := Index(v, PDPT); got != 2 {
		t.Errorf("Index(PDPT) = %d", got)
	}
	if got := Index(v, PD); got != 3 {
		t.Errorf("Index(PD) = %d", got)
	}
	if got := Index(v, PT); got != 4 {
		t.Errorf("Index(PT) = %d", got)
	}
}

func TestLevelString(t *testing.T) {
	names := map[Level]string{PML4: "PML4", PDPT: "PDPT", PD: "PD", PT: "PT", Level(9): "Level(9)"}
	for l, want := range names {
		if got := l.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", uint8(l), got, want)
		}
	}
}

func TestLineBase(t *testing.T) {
	p := HPA(0x1FF)
	if got := p.LineBase(); got != HPA(0x1C0) {
		t.Errorf("LineBase = %#x, want 0x1c0", uint64(got))
	}
	if p.Line() != 0x1FF>>6 {
		t.Errorf("Line = %#x", p.Line())
	}
}

// Property: translation through Translate always preserves the in-page
// offset and the requested frame number, for both page sizes.
func TestTranslateProperty(t *testing.T) {
	f := func(raw uint64, pfn uint32, large bool) bool {
		s := Page4K
		if large {
			s = Page2M
		}
		v := canonical(raw)
		h := Translate(v, uint64(pfn), s)
		return h.PFN(s) == uint64(pfn) && uint64(h)&(s.Bytes()-1) == v.Offset(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: VPN and PageBase agree — PageBase is VPN shifted back up.
func TestVPNPageBaseProperty(t *testing.T) {
	f := func(raw uint64, large bool) bool {
		s := Page4K
		if large {
			s = Page2M
		}
		v := canonical(raw)
		return uint64(v.PageBase(s)) == v.VPN(s)<<s.Shift()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: radix indices are always 9 bits and reconstruct the VPN.
func TestRadixIndexProperty(t *testing.T) {
	f := func(raw uint64) bool {
		v := canonical(raw)
		var rebuilt uint64
		for l := PML4; l <= PT; l++ {
			idx := Index(v, l)
			if idx > 0x1FF {
				return false
			}
			rebuilt = rebuilt<<9 | idx
		}
		return rebuilt == v.VPN(Page4K)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringForms(t *testing.T) {
	if VA(0x10).String() != "gVA:0x10" {
		t.Errorf("VA.String() = %q", VA(0x10).String())
	}
	if GPA(0x20).String() != "gPA:0x20" {
		t.Errorf("GPA.String() = %q", GPA(0x20).String())
	}
	if HPA(0x30).String() != "hPA:0x30" {
		t.Errorf("HPA.String() = %q", HPA(0x30).String())
	}
}

func TestPage1G(t *testing.T) {
	if Page1G.Shift() != 30 || Page1G.Bytes() != 1<<30 {
		t.Error("Page1G geometry wrong")
	}
	if Page1G.String() != "1GB" {
		t.Errorf("Page1G.String() = %q", Page1G.String())
	}
	v := VA(0x40_0000_0000 + 12345)
	if v.VPN(Page1G) != 0x100 {
		t.Errorf("VPN(1G) = %#x", v.VPN(Page1G))
	}
	if v.Offset(Page1G) != 12345 {
		t.Errorf("Offset(1G) = %d", v.Offset(Page1G))
	}
}

// canonical truncates x to the 48-bit canonical range the 4-level tables
// translate.
func canonical(x uint64) VA { return VA(x & (1<<48 - 1)) }
