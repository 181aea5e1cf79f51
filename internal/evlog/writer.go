// The recorder: a Writer observes executed events through
// simenv.Simulator.OnEvent and streams the framed, digest-chained log to
// an io.Writer. The append path is part of the simulator's allocation
// discipline: with a warm name table and a resident buffer, recording an
// event touches the heap not at all (pinned by alloc_test.go), and a
// simulator with no recorder attached pays nothing whatsoever.
package evlog

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/simenv"
)

// flushThreshold is the pending-frame buffer size that triggers a write
// to the underlying sink. Large enough that steady-state recording is a
// memcpy per event and a Write per few thousand events.
const flushThreshold = 32 << 10

// Writer records executed events into an event log. Construct with
// NewWriter, attach to a simulator with Attach (or hand Observe to
// OnEvent directly), and Close after the run to seal the log with its
// trailer. Not safe for concurrent use — one Writer per simulator, which
// is the sweep engine's per-cell concurrency contract anyway.
type Writer struct {
	out     io.Writer
	buf     []byte            // pending frames, flushed at flushThreshold
	scratch []byte            // one record's payload, reused every event
	names   map[string]uint64 // interned event names -> 1-based id
	chain   uint64
	n       uint64
	prevSec int64
	prevNs  int64
	err     error
	closed  bool
}

// NewWriter writes the magic/header line to out and returns a Writer
// ready to record.
func NewWriter(out io.Writer, hdr Header) (*Writer, error) {
	meta, err := json.Marshal(hdr)
	if err != nil {
		return nil, fmt.Errorf("evlog: encode header: %w", err)
	}
	if _, err := fmt.Fprintf(out, "%s %d %s\n", Magic, FormatVersion, meta); err != nil {
		return nil, fmt.Errorf("evlog: write header: %w", err)
	}
	return &Writer{
		out:     out,
		buf:     make([]byte, 0, flushThreshold+256),
		scratch: make([]byte, 0, 64),
		names:   make(map[string]uint64, 64),
		chain:   fnvOffset,
	}, nil
}

// Attach registers the writer on the simulator so every executed event
// is recorded. Call before the run; the simulator offers no detach, so a
// writer lives as long as its simulator (exactly the lifetime of a sweep
// cell or a CLI run).
func (w *Writer) Attach(sim *simenv.Simulator) { sim.OnEvent(w.Observe) }

// Records reports how many events have been recorded so far.
func (w *Writer) Records() uint64 { return w.n }

// Observe is the simenv.OnEvent hook: record one executed event.
//
//glacvet:hotpath
func (w *Writer) Observe(name string, at time.Time) {
	w.record(name, at.Unix(), int64(at.Nanosecond()))
}

// record appends one event record to the pending buffer. The payload is
// built in the reused scratch buffer (delta-encoded time, interned name,
// chain check byte), then framed into buf; both buffers keep their grown
// capacity, so steady-state recording allocates nothing.
//
//glacvet:hotpath
func (w *Writer) record(name string, sec, nsec int64) {
	if w.err != nil || w.closed {
		return
	}
	p := w.scratch[:0]
	p = binary.AppendVarint(p, sec-w.prevSec)
	p = binary.AppendVarint(p, nsec-w.prevNs)
	if id, ok := w.names[name]; ok {
		p = binary.AppendUvarint(p, id)
	} else {
		w.names[name] = uint64(len(w.names)) + 1
		p = binary.AppendUvarint(p, 0)
		p = binary.AppendUvarint(p, uint64(len(name)))
		p = append(p, name...)
	}
	w.chain = chainUpdate(w.chain, p)
	p = append(p, byte(w.chain))
	w.scratch = p
	w.prevSec, w.prevNs = sec, nsec
	w.n++
	w.buf = binary.AppendUvarint(w.buf, uint64(len(p)))
	w.buf = append(w.buf, p...)
	if len(w.buf) >= flushThreshold {
		w.flush()
	}
}

// flush writes the pending frames to the sink, keeping buf's capacity.
func (w *Writer) flush() {
	if len(w.buf) == 0 || w.err != nil {
		return
	}
	if _, err := w.out.Write(w.buf); err != nil {
		w.err = fmt.Errorf("evlog: write records: %w", err)
	}
	w.buf = w.buf[:0]
}

// Close flushes pending records and seals the log with the terminator
// frame and the trailer line. The log is only complete — and only
// readable — after a successful Close.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	w.flush()
	if w.err != nil {
		return w.err
	}
	trailer, err := json.Marshal(Trailer{Records: w.n, Chain: fmt.Sprintf("%016x", w.chain)})
	if err != nil {
		w.err = fmt.Errorf("evlog: encode trailer: %w", err)
		return w.err
	}
	if _, err := fmt.Fprintf(w.out, "\x00%s\n", trailer); err != nil {
		w.err = fmt.Errorf("evlog: write trailer: %w", err)
	}
	return w.err
}
