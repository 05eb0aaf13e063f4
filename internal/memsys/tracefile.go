package memsys

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strconv"

	"splash2/internal/fault"
)

// TraceFile is an out-of-core view of a v2 trace container: the header
// and index footer are parsed at open, the event blocks stay on disk.
// It implements TraceSource, so ReplayMulti and StackDistances stream
// it block by block with O(block buffer) peak memory — a multi-gigabyte
// paper-scale trace replays without ever materializing the stream. The
// footer also enables random access: DecodeBlock decodes any block and
// EpochWindow any epoch range without touching the prefix.
//
// A TraceFile is safe for concurrent readers of distinct blocks
// (DecodeBlock allocates its own buffers; the underlying
// ReaderAt must be concurrency-safe, as *os.File is); the streaming
// blocks pass reuses one buffer and is single-consumer like any
// TraceSource.
type TraceFile struct {
	r      io.ReaderAt
	size   int64
	closer io.Closer
	inj    *fault.Injector

	homeLineSize int
	homes        []int32
	meta         TraceMeta
	index        []BlockInfo
	footerOff    int64
}

// BlockInfo describes one block of a v2 container, as recorded in the
// index footer: what it holds and where its bytes live.
type BlockInfo struct {
	// Marker flags a measurement-reset marker block (Proc is meaningless,
	// Events is 1).
	Marker bool
	// Proc is the processor whose events the block holds.
	Proc int
	// Epoch is the synchronization epoch the block was recorded in.
	Epoch uint64
	// Events is the number of events in the block.
	Events int
	// Offset is the block's byte offset in the file (at its tag byte).
	Offset int64
	// Size is the block's encoded length in bytes, tag included.
	Size int64
}

// OpenTraceFile opens an on-disk v2 trace for out-of-core streaming.
// The injector (nil for none) supplies the chaos suite's fault points:
// "trace.read" covers the open and header read, "trace.read.footer" the
// index footer, and "trace.read.block:<i>" each block decode.
func OpenTraceFile(path string, inj *fault.Injector) (*TraceFile, error) {
	if err := inj.Do(context.Background(), "trace.read"); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	tf, err := NewTraceFile(f, fi.Size(), inj)
	if err != nil {
		f.Close()
		return nil, err
	}
	tf.closer = f
	return tf, nil
}

// NewTraceFile parses the header and index footer of a v2 container
// held by any ReaderAt (a file, an mmap, a byte slice). The input is
// untrusted: a corrupt or lying footer yields a descriptive error,
// never a panic or an allocation beyond the file's own size.
func NewTraceFile(r io.ReaderAt, size int64, inj *fault.Injector) (*TraceFile, error) {
	// Smallest legal file: 16-byte header, end tag, 7-byte empty footer,
	// 12-byte trailer.
	if size < 16+1+7+12 {
		return nil, fmt.Errorf("memsys: trace truncated: %d bytes is smaller than an empty v2 container (header, end tag, footer, trailer)", size)
	}
	hr := inj.Reader("trace.read", io.NewSectionReader(r, 0, size))
	var fixed [16]byte
	if _, err := io.ReadFull(hr, fixed[:]); err != nil {
		return nil, fmt.Errorf("memsys: trace truncated reading header: %w", err)
	}
	if magic := binary.LittleEndian.Uint32(fixed[0:4]); magic != traceMagicV2 {
		if magic == traceMagic {
			return nil, fmt.Errorf("memsys: trace is flat v1 format; convert to v2 for out-of-core streaming (trace convert)")
		}
		return nil, fmt.Errorf("memsys: bad trace magic %#x (want %#x)", magic, traceMagicV2)
	}
	lineSize := binary.LittleEndian.Uint32(fixed[4:8])
	if lineSize == 0 || lineSize > maxHomeLineSize {
		return nil, fmt.Errorf("memsys: corrupt trace: home line size %d out of range (1..%d)", lineSize, maxHomeLineSize)
	}
	nh := binary.LittleEndian.Uint64(fixed[8:16])
	if nh > uint64(size)/4 {
		return nil, fmt.Errorf("memsys: corrupt trace: home map of %d entries cannot fit in %d bytes", nh, size)
	}
	homes, err := readChunked[int32](hr, nh, "home map")
	if err != nil {
		return nil, err
	}
	firstBlockOff := int64(16 + 4*len(homes))

	var trailer [12]byte
	if _, err := r.ReadAt(trailer[:], size-12); err != nil {
		return nil, fmt.Errorf("memsys: trace truncated reading trailer: %w", err)
	}
	if magic := binary.LittleEndian.Uint32(trailer[8:12]); magic != traceIndexMagic {
		return nil, fmt.Errorf("memsys: corrupt trace: bad index magic %#x (want %#x)", magic, traceIndexMagic)
	}
	footerLen := binary.LittleEndian.Uint64(trailer[0:8])
	// Compare in the unsigned domain: a footer length with the top bit
	// set must not wrap negative and slip past the bound.
	avail := size - 12 - firstBlockOff - 1
	if avail < 0 || footerLen < 7 || footerLen > uint64(avail) {
		return nil, fmt.Errorf("memsys: corrupt trace: trailer footer length %d out of range", footerLen)
	}
	footerOff := size - 12 - int64(footerLen)
	if err := inj.Do(context.Background(), "trace.read.footer"); err != nil {
		return nil, err
	}
	fb := make([]byte, footerLen)
	if _, err := r.ReadAt(fb, footerOff); err != nil {
		return nil, fmt.Errorf("memsys: trace truncated reading index footer: %w", err)
	}
	fb = inj.Data("trace.read.footer", fb)
	fr := bytes.NewReader(fb)
	foot, err := parseV2Footer(fr)
	if err != nil {
		return nil, err
	}
	if fr.Len() != 0 {
		return nil, fmt.Errorf("memsys: corrupt trace: index footer has %d trailing bytes", fr.Len())
	}
	if foot.firstBlockOff != firstBlockOff {
		return nil, fmt.Errorf("memsys: corrupt trace: index footer says blocks start at %d, header ends at %d", foot.firstBlockOff, firstBlockOff)
	}

	index := make([]BlockInfo, len(foot.blocks))
	off := firstBlockOff
	for i, b := range foot.blocks {
		index[i] = BlockInfo{Marker: b.marker, Proc: b.proc, Epoch: b.epoch, Events: b.events, Offset: off, Size: b.size}
		off += b.size
	}
	if off+1 != footerOff {
		return nil, fmt.Errorf("memsys: corrupt trace: index footer block sizes end at %d, footer starts at %d", off+1, footerOff)
	}
	var end [1]byte
	if _, err := r.ReadAt(end[:], off); err != nil {
		return nil, fmt.Errorf("memsys: trace truncated reading end tag: %w", err)
	}
	if end[0] != v2TagEnd {
		return nil, fmt.Errorf("memsys: corrupt trace: block sequence ends with tag %d (want %d)", end[0], v2TagEnd)
	}

	maxProc := 0
	if foot.nprocs > 0 {
		maxProc = foot.nprocs - 1
	}
	meta := TraceMeta{
		HomeLineSize: int(lineSize),
		MaxProc:      maxProc,
		MinProcs:     minProcs(maxProc, homes),
		MaxAddr:      foot.maxAddr,
		Refs:         foot.refs,
		Markers:      foot.markers,
		ProcRefs:     foot.procRefs,
	}
	return &TraceFile{
		r: r, size: size, inj: inj,
		homeLineSize: int(lineSize), homes: homes,
		meta: meta, index: index, footerOff: footerOff,
	}, nil
}

// Close releases the underlying file (no-op for a TraceFile built over
// a caller-owned ReaderAt).
func (tf *TraceFile) Close() error {
	if tf.closer == nil {
		return nil
	}
	return tf.closer.Close()
}

// Meta returns the stream summary straight from the index footer — no
// decode pass.
func (tf *TraceFile) Meta() TraceMeta { return tf.meta }

// Len returns the total stream length in events, markers included.
func (tf *TraceFile) Len() int { return int(tf.meta.Refs + tf.meta.Markers) }

// HomeFn adapts the recorded home map to a replay line size.
func (tf *TraceFile) HomeFn(lineSize int) HomeFn {
	return homeFn(tf.homes, tf.homeLineSize, lineSize)
}

func (tf *TraceFile) homeMap() []int32 { return tf.homes }

// Index returns the block index (a copy).
func (tf *TraceFile) Index() []BlockInfo {
	return append([]BlockInfo(nil), tf.index...)
}

// decodeBlockInto reads and decodes block i, appending its packed
// events to dst (raw is a reusable scratch buffer). The block's own
// header must agree with the index footer entry — a block that lies
// about its contents is reported, not trusted.
func (tf *TraceFile) decodeBlockInto(i int, raw []byte, dst []uint64) (events []uint64, rawOut []byte, err error) {
	info := tf.index[i]
	if err := tf.inj.Do(context.Background(), "trace.read.block:"+strconv.Itoa(i)); err != nil {
		return dst, raw, err
	}
	if cap(raw) < int(info.Size) {
		raw = make([]byte, info.Size)
	}
	buf := raw[:info.Size]
	if _, err := tf.r.ReadAt(buf, info.Offset); err != nil {
		return dst, raw, fmt.Errorf("memsys: trace truncated reading block %d (%d bytes at offset %d): %w", i, info.Size, info.Offset, err)
	}
	buf = tf.inj.Data("trace.read.block:"+strconv.Itoa(i), buf)
	br := bytes.NewReader(buf)
	tag, err := br.ReadByte()
	if err != nil {
		return dst, raw, fmt.Errorf("memsys: trace truncated reading block %d tag: %w", i, err)
	}
	if tag != v2TagEvents && tag != v2TagMarker {
		return dst, raw, fmt.Errorf("memsys: corrupt trace: block %d has unknown block tag %d", i, tag)
	}
	if info.Marker {
		if tag != v2TagMarker {
			return dst, raw, fmt.Errorf("memsys: corrupt trace: block %d has tag %d, index footer says marker", i, tag)
		}
		epoch, err := readUvarint(br, "marker epoch")
		if err != nil {
			return dst, raw, err
		}
		if epoch != info.Epoch {
			return dst, raw, fmt.Errorf("memsys: corrupt trace: block %d records epoch %d, index footer says %d", i, epoch, info.Epoch)
		}
		if br.Len() != 0 {
			return dst, raw, fmt.Errorf("memsys: corrupt trace: marker block %d has %d trailing bytes", i, br.Len())
		}
		return append(dst, resetMarker), raw, nil
	}
	if tag != v2TagEvents {
		return dst, raw, fmt.Errorf("memsys: corrupt trace: block %d has tag %d, index footer says events", i, tag)
	}
	proc, epoch, count, payloadLen, err := readV2EventsHeader(br)
	if err != nil {
		return dst, raw, err
	}
	if proc != info.Proc || epoch != info.Epoch || count != info.Events {
		return dst, raw, fmt.Errorf("memsys: corrupt trace: block %d header (proc=%d epoch=%d events=%d) disagrees with index footer (proc=%d epoch=%d events=%d)",
			i, proc, epoch, count, info.Proc, info.Epoch, info.Events)
	}
	if br.Len() != payloadLen {
		return dst, raw, fmt.Errorf("memsys: corrupt trace: block %d payload length %d, %d bytes remain after header", i, payloadLen, br.Len())
	}
	payload := buf[len(buf)-br.Len():]
	events, maxA, err := decodeV2Payload(payload, proc, count, dst)
	if err != nil {
		return dst, raw, err
	}
	if maxA > tf.meta.MaxAddr {
		return dst, raw, fmt.Errorf("memsys: corrupt trace: block %d address %#x beyond footer maximum %#x", i, uint64(maxA), uint64(tf.meta.MaxAddr))
	}
	return events, raw, nil
}

// DecodeBlock decodes block i independently — no prefix decode, one
// bounded read — returning its packed events (a fresh slice).
func (tf *TraceFile) DecodeBlock(i int) ([]uint64, error) {
	if i < 0 || i >= len(tf.index) {
		return nil, fmt.Errorf("memsys: block %d out of range (trace has %d)", i, len(tf.index))
	}
	events, _, err := tf.decodeBlockInto(i, nil, nil)
	return events, err
}

// WriteTo serializes the stream in flat v1 format, block by block —
// the byte-identical output of the equivalent in-memory Trace.WriteTo,
// with O(block buffer) peak memory.
func (tf *TraceFile) WriteTo(w io.Writer) (int64, error) { return writeFlat(w, tf) }

// decodeAll decodes every block into an in-memory Trace and checks the
// index footer's stream summary against the decoded events. Block-level
// checks cannot catch a footer that overstates a bound or misattributes
// references between processors; a full decode can, so ReadTrace
// rejects what a streaming TraceFile by design cannot.
func (tf *TraceFile) decodeAll() (*Trace, error) {
	// Every event costs at least one payload byte, so the file size
	// bounds a trustworthy capacity hint where the footer's count may lie.
	capHint := tf.Len()
	if int64(capHint) > tf.size {
		capHint = int(tf.size)
	}
	tr := &Trace{homeLineSize: tf.homeLineSize, homes: tf.homes, events: make([]uint64, 0, capHint)}
	var raw []byte
	for i, info := range tf.index {
		var err error
		if tr.events, raw, err = tf.decodeBlockInto(i, raw, tr.events); err != nil {
			return nil, err
		}
		if k := len(tr.spans) - 1; !info.Marker && k >= 0 && tr.spans[k].proc == info.Proc && tr.spans[k].epoch == info.Epoch {
			tr.spans[k].n += info.Events
			continue
		}
		proc := info.Proc
		if info.Marker {
			proc = spanMarker
		}
		tr.spans = append(tr.spans, traceSpan{epoch: info.Epoch, proc: proc, n: info.Events})
	}
	foot, got := tf.meta, tr.Meta()
	if len(foot.ProcRefs) != len(got.ProcRefs) || foot.MaxAddr != got.MaxAddr || foot.Refs != got.Refs || foot.Markers != got.Markers {
		return nil, fmt.Errorf("memsys: corrupt trace: index footer summary (procs=%d maxAddr=%#x refs=%d markers=%d) disagrees with blocks (procs=%d maxAddr=%#x refs=%d markers=%d)",
			len(foot.ProcRefs), uint64(foot.MaxAddr), foot.Refs, foot.Markers, len(got.ProcRefs), uint64(got.MaxAddr), got.Refs, got.Markers)
	}
	for p, n := range foot.ProcRefs {
		if n != got.ProcRefs[p] {
			return nil, fmt.Errorf("memsys: corrupt trace: index footer counts %d references for processor %d, blocks hold %d", n, p, got.ProcRefs[p])
		}
	}
	return tr, nil
}

// decodeAhead is the depth of the streaming decode pipeline: how many
// decoded blocks may sit between the decoder and the consumer. Peak
// memory stays bounded by (decodeAhead+1) decoded blocks plus one
// encoded block, independent of trace length.
const decodeAhead = 4

// decodedBlock carries one decoded block (or the error that stopped
// the decoder) from the decode goroutine to the consumer.
type decodedBlock struct {
	events []uint64
	err    error
}

// blocks streams the whole file in index order — the TraceSource
// contract ReplayMulti, StackDistances and the sampled pass consume.
// Decoding runs one block ahead of the consumer on a separate
// goroutine (bounded by decodeAhead), overlapping DecodeBlock work
// with simulation; blocks are delivered in index order from a fixed
// pool of reused buffers, so the consumer observes the exact event
// sequence of a serial decode loop and peak memory stays independent
// of trace length.
func (tf *TraceFile) blocks(yield func(events []uint64) error) error {
	if len(tf.index) == 0 {
		return nil
	}
	// Size the buffer pool to the largest block in the index so decode
	// appends never reallocate mid-stream.
	maxEvents := 1
	for i := range tf.index {
		if n := int(tf.index[i].Events); n > maxEvents {
			maxEvents = n
		}
	}
	out := make(chan decodedBlock, decodeAhead)
	free := make(chan []uint64, decodeAhead+1)
	for i := 0; i < decodeAhead+1; i++ {
		free <- make([]uint64, 0, maxEvents)
	}
	// stop tells the decoder an early consumer exit (yield error)
	// abandoned the stream; closing it unblocks any pending send.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		defer close(out)
		var raw []byte
		for i := range tf.index {
			var buf []uint64
			select {
			case buf = <-free:
			case <-stop:
				return
			}
			events, r, err := tf.decodeBlockInto(i, raw, buf[:0])
			raw = r
			select {
			case out <- decodedBlock{events: events, err: err}:
			case <-stop:
				return
			}
			if err != nil {
				return
			}
		}
	}()
	for db := range out {
		if db.err != nil {
			return db.err
		}
		if err := yield(db.events); err != nil {
			return err
		}
		free <- db.events
	}
	return nil
}
