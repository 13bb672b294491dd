package trace

import (
	"fmt"
	"io"
)

// Replay plays back a recorded trace as a Generator, looping when it
// reaches the end — so a finite trace file can drive a run of any length
// (the paper replays its PIN traces the same way).
type Replay struct {
	recs []Record
	i    int
}

// NewReplay wraps an in-memory record slice.
func NewReplay(recs []Record) *Replay {
	if len(recs) == 0 {
		panic("trace: empty replay")
	}
	cp := make([]Record, len(recs))
	copy(cp, recs)
	return &Replay{recs: cp}
}

// LoadReplay reads an entire binary trace stream into a Replay.
func LoadReplay(r io.Reader) (*Replay, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var recs []Record
	for {
		rec, err := tr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: loading replay: %w", err)
		}
		recs = append(recs, rec)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("trace: replay stream has no records")
	}
	return NewReplay(recs), nil
}

// Len returns the number of records in one pass of the trace.
func (r *Replay) Len() int { return len(r.recs) }

// Next implements Generator.
func (r *Replay) Next() Record {
	rec := r.recs[r.i]
	r.i++
	if r.i == len(r.recs) {
		r.i = 0
	}
	return rec
}

// Fill implements Generator, copying runs of the trace across the wrap.
func (r *Replay) Fill(buf []Record) int {
	for done := 0; done < len(buf); {
		n := copy(buf[done:], r.recs[r.i:])
		done += n
		if r.i += n; r.i == len(r.recs) {
			r.i = 0
		}
	}
	return len(buf)
}
