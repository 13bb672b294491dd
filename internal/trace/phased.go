package trace

// Phase is one segment of a Phased stream: Gen drives the trace for
// Records generated records before the stream moves on.
type Phase struct {
	Records uint64
	Gen     Generator
}

// Phased cycles through phases, switching sub-generators at fixed
// generated-record boundaries. It expresses the working-set dynamics
// stationary generators cannot: a footprint that grows and shrinks
// mid-trace (ballooning guests, batch jobs changing phase). All phases
// should present the same thread count, or the downstream scheduler
// starves the threads a phase never emits.
type Phased struct {
	phases []Phase
	idx    int
	left   uint64
}

// NewPhased builds a phase-cycling generator. Panics when no phase is
// given or a phase has no records or no generator.
func NewPhased(phases ...Phase) *Phased {
	if len(phases) == 0 {
		panic("trace: Phased needs at least one phase")
	}
	for _, ph := range phases {
		if ph.Records == 0 || ph.Gen == nil {
			panic("trace: every phase needs records and a generator")
		}
	}
	return &Phased{phases: phases, left: phases[0].Records}
}

// Next implements Generator. Re-entering a phase after a full cycle
// continues its generator where it left off: the phase's working set is
// the same region either way.
func (p *Phased) Next() Record {
	if p.left == 0 {
		p.idx = (p.idx + 1) % len(p.phases)
		p.left = p.phases[p.idx].Records
	}
	p.left--
	return p.phases[p.idx].Gen.Next()
}

// Fill implements Generator: it fills from the current phase up to the
// phase boundary, then moves on, so each phase's generator fills a whole
// run per call.
func (p *Phased) Fill(buf []Record) int {
	for done := 0; done < len(buf); {
		if p.left == 0 {
			p.idx = (p.idx + 1) % len(p.phases)
			p.left = p.phases[p.idx].Records
		}
		run := buf[done : done+int(min(p.left, uint64(len(buf)-done)))]
		n := p.phases[p.idx].Gen.Fill(run)
		p.left -= uint64(n)
		done += n
	}
	return len(buf)
}
