package pomtlb

import (
	"repro/internal/addr"
	"repro/internal/stats"
)

// PredictorEntries is the number of predictor slots (Section 2.1.4: 512
// two-bit entries, 128 bytes of SRAM per core).
const PredictorEntries = 512

// Predictor is the per-core combined page-size / cache-bypass predictor of
// Sections 2.1.4–2.1.5: 512 two-bit entries indexed by 9 bits of the
// virtual address above the 4 KB offset. One bit predicts the page size
// (0 = 4 KB, 1 = 2 MB), the other whether to bypass the data caches and go
// straight to the POM-TLB DRAM.
type Predictor struct {
	size   [PredictorEntries]bool
	bypass [PredictorEntries]bool

	sizeAcc   stats.HitMiss // correct vs incorrect size predictions
	bypassAcc stats.HitMiss // correct vs incorrect bypass predictions
}

// index extracts the 9 predictor index bits (ignoring the low 12).
func index(va addr.VA) int {
	return int((uint64(va) >> addr.Shift4K) & (PredictorEntries - 1))
}

// PredictSize returns the predicted page size for the miss address.
func (p *Predictor) PredictSize(va addr.VA) addr.PageSize {
	if p.size[index(va)] {
		return addr.Page2M
	}
	return addr.Page4K
}

// UpdateSize records the actual page size once the translation resolves,
// scoring the earlier prediction and correcting the entry if it was wrong
// (the paper's single-bit update, no hysteresis).
func (p *Predictor) UpdateSize(va addr.VA, actual addr.PageSize) {
	i := index(va)
	predicted := addr.Page4K
	if p.size[i] {
		predicted = addr.Page2M
	}
	p.sizeAcc.Record(predicted == actual)
	p.size[i] = actual == addr.Page2M
}

// PredictBypass returns true when the data-cache probes should be skipped.
func (p *Predictor) PredictBypass(va addr.VA) bool {
	return p.bypass[index(va)]
}

// UpdateBypass records whether bypassing would have been the right call
// (true when the cached probes would have missed), scoring and updating
// the 1-bit entry.
func (p *Predictor) UpdateBypass(va addr.VA, shouldBypass bool) {
	i := index(va)
	p.bypassAcc.Record(p.bypass[i] == shouldBypass)
	p.bypass[i] = shouldBypass
}

// SizeStats returns the raw size-prediction counters.
func (p *Predictor) SizeStats() stats.HitMiss { return p.sizeAcc }

// BypassStats returns the raw bypass-prediction counters.
func (p *Predictor) BypassStats() stats.HitMiss { return p.bypassAcc }

// ResetStats clears only the accuracy counters, keeping the learned
// prediction bits (so warmup training survives the measurement reset).
func (p *Predictor) ResetStats() {
	p.sizeAcc = stats.HitMiss{}
	p.bypassAcc = stats.HitMiss{}
}
