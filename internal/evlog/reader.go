// The reader: Read decodes and verifies a complete event log. Every
// failure names the exact record index where the log stopped making
// sense — a flipped byte breaks the record's chain check, a truncated
// file fails its frame bounds, a forged tail fails the trailer's count
// or final digest — so corruption localizes to an event, not a file.
package evlog

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// Log is a fully decoded, fully verified event log. Its records are
// read through Len and Record.
type Log struct {
	header  Header
	trailer Trailer

	// names is the interned name table in introduction order: a few
	// dozen to a few thousand strings. recs holds one entry per record,
	// indexed by Seq, that names its event by an index into names, so
	// the table is one allocation with no pointers for the garbage
	// collector to scan.
	names []string
	recs  []entry

	// chainFinal is the recomputed final digest, checked against the
	// trailer's.
	chainFinal uint64
}

// entry is one decoded record: its execution time and the index of its
// name in Log.names. Seq is not stored because it is the entry's index.
type entry struct {
	sec  int64
	nsec int32
	name uint32
}

// Len returns the number of records in the log.
func (l *Log) Len() int { return len(l.recs) }

// Record returns the record at index i, 0 <= i < Len().
func (l *Log) Record(i int) Record {
	e := l.recs[i]
	return Record{Seq: uint64(i), AtSec: e.sec, AtNsec: e.nsec, Name: l.names[e.name]}
}

// ReadFile reads and verifies the event log at path.
func ReadFile(path string) (*Log, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("evlog: %w", err)
	}
	l, err := decode(data)
	if err != nil {
		return nil, fmt.Errorf("evlog: %s: %w", path, err)
	}
	return l, nil
}

// Read decodes an event log, verifying the header, every record's chain
// check byte, and the trailer's record count and final digest.
func Read(r io.Reader) (*Log, error) {
	// io.Copy lets a reader that holds the log in memory (a bytes.Reader
	// or a bytes.Buffer) write it in one piece, so the buffer is
	// allocated once at its final size instead of grown as io.ReadAll
	// grows it.
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		return nil, fmt.Errorf("read log: %w", err)
	}
	return decode(buf.Bytes())
}

// decode decodes and verifies a whole log held in memory.
func decode(data []byte) (*Log, error) {
	l := &Log{}
	body, err := l.parseHeader(data)
	if err != nil {
		return nil, err
	}
	rest, err := l.parseRecords(body)
	if err != nil {
		return nil, err
	}
	return l, l.parseTrailer(rest)
}

// parseHeader consumes the magic/version/header line and returns the
// record stream that follows it.
func (l *Log) parseHeader(data []byte) ([]byte, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("no header line; not a %s log", Magic)
	}
	line := string(data[:nl])
	magic, rest, _ := strings.Cut(line, " ")
	version, meta, ok := strings.Cut(rest, " ")
	if magic != Magic || !ok {
		return nil, fmt.Errorf("header %q is not a %s header", line, Magic)
	}
	v, err := strconv.Atoi(version)
	if err != nil || v != FormatVersion {
		return nil, fmt.Errorf("log format version %q, this reader speaks %d", version, FormatVersion)
	}
	if err := json.Unmarshal([]byte(meta), &l.header); err != nil {
		return nil, fmt.Errorf("header metadata %q: %w", meta, err)
	}
	return data[nl+1:], nil
}

// parseRecords decodes the framed record stream up to (and consuming)
// the terminator frame, verifying each record's chain check byte.
func (l *Log) parseRecords(data []byte) ([]byte, error) {
	if n := countFrames(data); n >= 0 {
		l.recs = make([]entry, 0, n)
	}
	var (
		chain   uint64 = fnvOffset
		prevSec int64
		prevNs  int64
		i       int
	)
	for {
		idx := uint64(len(l.recs))
		if i >= len(data) {
			return nil, fmt.Errorf("record %d: log truncated before its terminator", idx)
		}
		frameLen, n := binary.Uvarint(data[i:])
		if n <= 0 {
			return nil, fmt.Errorf("record %d: malformed frame length", idx)
		}
		i += n
		if frameLen == 0 {
			l.chainFinal = chain
			return data[i:], nil
		}
		if uint64(len(data)-i) < frameLen {
			return nil, fmt.Errorf("record %d: frame of %d bytes overruns the log (truncated?)", idx, frameLen)
		}
		payload := data[i : i+int(frameLen)]
		i += int(frameLen)
		e, err := decodePayload(payload, idx, &l.names, &prevSec, &prevNs, &chain)
		if err != nil {
			return nil, err
		}
		l.recs = append(l.recs, e)
	}
}

// countFrames walks the frame lengths of a record stream up to its
// terminator and returns the number of records, so parseRecords can size
// the table once. It returns -1 for a stream whose framing is broken:
// the decode pass then reports the fault at its record.
func countFrames(data []byte) int {
	n := 0
	for i := 0; i < len(data); n++ {
		frameLen, k := binary.Uvarint(data[i:])
		if k <= 0 {
			return -1
		}
		i += k
		if frameLen == 0 {
			return n
		}
		if uint64(len(data)-i) < frameLen {
			return -1
		}
		i += int(frameLen)
	}
	return -1
}

// decodePayload decodes and chain-verifies one record payload.
func decodePayload(payload []byte, idx uint64, names *[]string, prevSec, prevNs *int64, chain *uint64) (entry, error) {
	if len(payload) < 2 {
		return entry{}, fmt.Errorf("record %d: payload of %d bytes is impossibly short", idx, len(payload))
	}
	body, check := payload[:len(payload)-1], payload[len(payload)-1]
	dSec, n := binary.Varint(body)
	if n <= 0 {
		return entry{}, fmt.Errorf("record %d: malformed time delta", idx)
	}
	body = body[n:]
	dNs, n := binary.Varint(body)
	if n <= 0 {
		return entry{}, fmt.Errorf("record %d: malformed nanosecond delta", idx)
	}
	body = body[n:]
	id, n := binary.Uvarint(body)
	if n <= 0 {
		return entry{}, fmt.Errorf("record %d: malformed name reference", idx)
	}
	body = body[n:]
	switch {
	case id == 0:
		nameLen, n := binary.Uvarint(body)
		if n <= 0 || uint64(len(body)-n) < nameLen {
			return entry{}, fmt.Errorf("record %d: malformed name introduction", idx)
		}
		if uint64(len(*names)) > math.MaxUint32 {
			return entry{}, fmt.Errorf("record %d: more than %d interned names", idx, uint64(math.MaxUint32)+1)
		}
		body = body[n:]
		*names = append(*names, string(body[:nameLen]))
		body = body[nameLen:]
		id = uint64(len(*names))
	case id > uint64(len(*names)):
		return entry{}, fmt.Errorf("record %d: name reference %d beyond the %d interned names", idx, id, len(*names))
	}
	if len(body) != 0 {
		return entry{}, fmt.Errorf("record %d: %d trailing payload bytes", idx, len(body))
	}
	*chain = chainUpdate(*chain, payload[:len(payload)-1])
	if byte(*chain) != check {
		return entry{}, fmt.Errorf("record %d: chain check mismatch — the log is corrupted at this record", idx)
	}
	*prevSec += dSec
	*prevNs += dNs
	if *prevNs < 0 || *prevNs >= 1e9 {
		return entry{}, fmt.Errorf("record %d: nanosecond %d outside [0, 1e9)", idx, *prevNs)
	}
	return entry{sec: *prevSec, nsec: int32(*prevNs), name: uint32(id - 1)}, nil
}

// parseTrailer verifies the trailer line against the decoded records.
func (l *Log) parseTrailer(data []byte) error {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return fmt.Errorf("log truncated inside its trailer (recorded but never closed?)")
	}
	if err := json.Unmarshal(data[:nl], &l.trailer); err != nil {
		return fmt.Errorf("trailer %q: %w", data[:nl], err)
	}
	if rest := data[nl+1:]; len(rest) != 0 {
		return fmt.Errorf("%d bytes after the trailer", len(rest))
	}
	if l.trailer.Records != uint64(len(l.recs)) {
		return fmt.Errorf("trailer promises %d records, log decodes %d", l.trailer.Records, len(l.recs))
	}
	if got := fmt.Sprintf("%016x", l.chainFinal); got != l.trailer.Chain {
		return fmt.Errorf("final chain digest %s does not match the trailer's %s", got, l.trailer.Chain)
	}
	return nil
}
