package memsys

import "fmt"

// EpochWindow returns a TraceSource view of src restricted to the
// epoch range [lo, hi] (inclusive), all processors. A streaming
// TraceFile view selects blocks through the index footer, so
// out-of-range blocks are never read or decoded — a sub-window replay
// costs I/O proportional to the window, not the trace. An in-memory
// Trace view selects event ranges by span. Reset markers are not part
// of the view: the window is one measurement era.
func EpochWindow(src TraceSource, lo, hi uint64) (TraceSource, error) {
	if lo > hi {
		return nil, fmt.Errorf("memsys: epoch window [%d, %d] is empty", lo, hi)
	}
	switch s := src.(type) {
	case *TraceFile:
		w := &windowedFile{tf: s, lo: lo, hi: hi}
		m := TraceMeta{HomeLineSize: s.homeLineSize, MaxAddr: s.meta.MaxAddr}
		var procRefs [maxTraceProcs + 1]uint64
		for i := range s.index {
			info := s.index[i]
			if info.Marker || info.Epoch < lo || info.Epoch > hi {
				continue
			}
			m.Refs += uint64(info.Events)
			procRefs[info.Proc] += uint64(info.Events)
			if info.Proc > m.MaxProc {
				m.MaxProc = info.Proc
			}
		}
		if m.Refs > 0 {
			m.ProcRefs = append([]uint64(nil), procRefs[:m.MaxProc+1]...)
		}
		m.MinProcs = minProcs(m.MaxProc, s.homes)
		w.meta = m
		return w, nil
	case *Trace:
		w := &windowedTrace{tr: s, ranges: s.epochRanges(lo, hi)}
		m := TraceMeta{HomeLineSize: s.homeLineSize}
		var procRefs [maxTraceProcs + 1]uint64
		for _, r := range w.ranges {
			for _, e := range s.events[r[0]:r[1]] {
				m.Refs++
				p := int(e >> 1 & 0x7f)
				procRefs[p]++
				if p > m.MaxProc {
					m.MaxProc = p
				}
				if a := Addr(e >> 8); a > m.MaxAddr {
					m.MaxAddr = a
				}
			}
		}
		if m.Refs > 0 {
			m.ProcRefs = append([]uint64(nil), procRefs[:m.MaxProc+1]...)
		}
		m.MinProcs = minProcs(m.MaxProc, s.homes)
		w.meta = m
		return w, nil
	}
	return nil, fmt.Errorf("memsys: epoch windows need a Trace or TraceFile source, got %T", src)
}

// windowedFile is an epoch-range view of a v2 container: Meta comes
// from the index footer, blocks from decoding only the in-range ones.
type windowedFile struct {
	tf     *TraceFile
	lo, hi uint64
	meta   TraceMeta
}

func (w *windowedFile) Meta() TraceMeta            { return w.meta }
func (w *windowedFile) HomeFn(lineSize int) HomeFn { return w.tf.HomeFn(lineSize) }
func (w *windowedFile) homeMap() []int32           { return w.tf.homes }

func (w *windowedFile) blocks(yield func(events []uint64) error) error {
	var raw []byte
	var events []uint64
	for i := range w.tf.index {
		info := w.tf.index[i]
		if info.Marker || info.Epoch < w.lo || info.Epoch > w.hi {
			continue
		}
		var err error
		events, raw, err = w.tf.decodeBlockInto(i, raw, events[:0])
		if err != nil {
			return err
		}
		if err := yield(events); err != nil {
			return err
		}
	}
	return nil
}

// windowedTrace is an epoch-range view of an in-memory trace: a list
// of marker-free event index ranges in stream order.
type windowedTrace struct {
	tr     *Trace
	ranges [][2]int
	meta   TraceMeta
}

func (w *windowedTrace) Meta() TraceMeta            { return w.meta }
func (w *windowedTrace) HomeFn(lineSize int) HomeFn { return w.tr.HomeFn(lineSize) }
func (w *windowedTrace) homeMap() []int32           { return w.tr.homes }

func (w *windowedTrace) blocks(yield func(events []uint64) error) error {
	for _, r := range w.ranges {
		for lo := r[0]; lo < r[1]; lo += replayBlockSize {
			hi := lo + replayBlockSize
			if hi > r[1] {
				hi = r[1]
			}
			if err := yield(w.tr.events[lo:hi]); err != nil {
				return err
			}
		}
	}
	return nil
}

// epochRanges returns the maximal marker-free event index ranges of
// epochs [lo, hi], in stream order.
func (t *Trace) epochRanges(lo, hi uint64) [][2]int {
	var out [][2]int
	pos := 0
	for _, sp := range t.spans {
		if sp.proc != spanMarker && sp.epoch >= lo && sp.epoch <= hi {
			if k := len(out) - 1; k >= 0 && out[k][1] == pos {
				out[k][1] = pos + sp.n
			} else {
				out = append(out, [2]int{pos, pos + sp.n})
			}
		}
		pos += sp.n
	}
	return out
}
