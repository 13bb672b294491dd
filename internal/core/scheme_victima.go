package core

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/oracle"
	"repro/internal/tlb"
	"repro/internal/victima"
)

// victimaLineBase is the synthetic cache-line address of core 0's block 0.
// It sits far above every simulated physical line (the hypervisor
// allocates frames from zero upward), so victima blocks can occupy real
// L2 data-cache ways without ever colliding with a data line. Cores'
// block ranges follow each other contiguously.
const victimaLineBase = uint64(1) << 52

// victimaScheme registers Victima (Kanellopoulos et al., arXiv
// 2310.04158): TLB entries live in blocks stored in each core's L2 *data*
// cache, donated way-by-way, with a PTE-aware replacement policy. The
// logical directory is a per-core victima.Store; the timing half is the
// real simulated L2 — blocks compete with data lines, and a block evicted
// under data pressure takes its translations with it (the fillL2 DropLine
// hook). With DonatedWays == 0 no store is built and the scheme is the
// exact baseline.
type victimaScheme struct{ baseScheme }

func (victimaScheme) Name() Mode                 { return Victima }
func (victimaScheme) Validate(cfg *Config) error { return victimaConfig(cfg).Validate() }

// victimaConfig resolves the store configuration Build uses, so Validate
// checks the set count a large L2 derives, not only an explicit one.
func victimaConfig(cfg *Config) victima.Config {
	v := cfg.VictimaCfg
	if v.DonatedWays > 0 && v.Sets == 0 {
		// One potential block per L2 data-cache set, so the donation is
		// bounded by DonatedWays ways of every set.
		v.Sets = cfg.L2.Sets()
	}
	return v
}

func (victimaScheme) Build(s *System) {
	cfg := victimaConfig(&s.cfg)
	if cfg.DonatedWays == 0 {
		return // degenerate baseline: no store, victimaPath falls through
	}
	s.vict = make([]*victima.Store, s.cfg.Cores)
	for i := range s.vict {
		s.vict[i] = victima.MustNew(cfg, victimaLineBase+uint64(i)*cfg.Sets)
	}
}

func (victimaScheme) Path(s *System, c *coreState, va addr.VA) tlb.Entry {
	return s.victimaPath(c, va)
}

func (victimaScheme) Shootdown(s *System, vmid addr.VMID, pid addr.PID, va addr.VA, vpn uint64, size addr.PageSize) {
	for _, v := range s.vict {
		v.InvalidatePage(vmid, pid, vpn, size)
	}
}

func (victimaScheme) ProcessExit(s *System, vmid addr.VMID, pid addr.PID) int {
	n := 0
	for _, v := range s.vict {
		n += v.InvalidateProcess(vmid, pid)
	}
	return n
}

func (victimaScheme) Holds(s *System, vmid addr.VMID, pid addr.PID, va addr.VA, size addr.PageSize) bool {
	for _, v := range s.vict {
		if v.LookupOnly(vmid, pid, va.VPN(size), size) {
			return true
		}
	}
	return false
}

func (victimaScheme) AttachSelfCheck(s *System, sc *SelfCheck) {
	for _, v := range s.vict {
		oracle.NewRefVictima(sc.h, v)
	}
}

// CheckInvariants validates each store and the residency contract: every
// occupied block's line must be resident in its core's L2 data cache
// (DropLine keeps the store in sync with L2 evictions).
func (victimaScheme) CheckInvariants(s *System) error {
	for i, v := range s.vict {
		if err := v.CheckInvariants(); err != nil {
			return err
		}
		c := s.cores[i]
		for si := uint64(0); si < v.Sets(); si++ {
			if v.Occupied(si) && !c.l2.Lookup(v.Line(si)) {
				return fmt.Errorf("core %d: victima block %d holds entries but its line %#x is not L2-resident",
					i, si, v.Line(si))
			}
		}
	}
	return nil
}

func (victimaScheme) ResetStats(s *System) {
	for _, v := range s.vict {
		v.ResetStats()
	}
}

func (victimaScheme) Aggregate(s *System, res *Result) {
	for _, v := range s.vict {
		res.Victima.Add(v.Stats())
	}
}
