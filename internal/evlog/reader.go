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
	"os"
	"strconv"
	"strings"
)

// Log is a fully decoded, fully verified event log.
type Log struct {
	Header  Header
	Trailer Trailer
	Records []Record

	// chainFinal is the recomputed final digest, checked against the
	// trailer's.
	chainFinal uint64
}

// ReadFile reads and verifies the event log at path.
func ReadFile(path string) (*Log, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("evlog: %w", err)
	}
	l, err := Read(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("evlog: %s: %w", path, err)
	}
	return l, nil
}

// Read decodes an event log, verifying the header, every record's chain
// check byte, and the trailer's record count and final digest.
func Read(r io.Reader) (*Log, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("read log: %w", err)
	}
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
	if err := json.Unmarshal([]byte(meta), &l.Header); err != nil {
		return nil, fmt.Errorf("header metadata %q: %w", meta, err)
	}
	return data[nl+1:], nil
}

// parseRecords decodes the framed record stream up to (and consuming)
// the terminator frame, verifying each record's chain check byte.
func (l *Log) parseRecords(data []byte) ([]byte, error) {
	var (
		names   []string
		chain   uint64 = fnvOffset
		prevSec int64
		prevNs  int64
		i       int
	)
	for {
		idx := uint64(len(l.Records))
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
		rec, err := decodePayload(payload, idx, &names, &prevSec, &prevNs, &chain)
		if err != nil {
			return nil, err
		}
		l.Records = append(l.Records, rec)
	}
}

// decodePayload decodes and chain-verifies one record payload.
func decodePayload(payload []byte, idx uint64, names *[]string, prevSec, prevNs *int64, chain *uint64) (Record, error) {
	if len(payload) < 2 {
		return Record{}, fmt.Errorf("record %d: payload of %d bytes is impossibly short", idx, len(payload))
	}
	body, check := payload[:len(payload)-1], payload[len(payload)-1]
	dSec, n := binary.Varint(body)
	if n <= 0 {
		return Record{}, fmt.Errorf("record %d: malformed time delta", idx)
	}
	body = body[n:]
	dNs, n := binary.Varint(body)
	if n <= 0 {
		return Record{}, fmt.Errorf("record %d: malformed nanosecond delta", idx)
	}
	body = body[n:]
	id, n := binary.Uvarint(body)
	if n <= 0 {
		return Record{}, fmt.Errorf("record %d: malformed name reference", idx)
	}
	body = body[n:]
	var name string
	switch {
	case id == 0:
		nameLen, n := binary.Uvarint(body)
		if n <= 0 || uint64(len(body)-n) < nameLen {
			return Record{}, fmt.Errorf("record %d: malformed name introduction", idx)
		}
		body = body[n:]
		name = string(body[:nameLen])
		body = body[nameLen:]
		*names = append(*names, name)
	case id <= uint64(len(*names)):
		name = (*names)[id-1]
	default:
		return Record{}, fmt.Errorf("record %d: name reference %d beyond the %d interned names", idx, id, len(*names))
	}
	if len(body) != 0 {
		return Record{}, fmt.Errorf("record %d: %d trailing payload bytes", idx, len(body))
	}
	*chain = chainUpdate(*chain, payload[:len(payload)-1])
	if byte(*chain) != check {
		return Record{}, fmt.Errorf("record %d: chain check mismatch — the log is corrupted at this record", idx)
	}
	*prevSec += dSec
	*prevNs += dNs
	if *prevNs < 0 || *prevNs >= 1e9 {
		return Record{}, fmt.Errorf("record %d: nanosecond %d outside [0, 1e9)", idx, *prevNs)
	}
	return Record{Seq: idx, AtSec: *prevSec, AtNsec: int32(*prevNs), Name: name}, nil
}

// parseTrailer verifies the trailer line against the decoded records.
func (l *Log) parseTrailer(data []byte) error {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return fmt.Errorf("log truncated inside its trailer (recorded but never closed?)")
	}
	if err := json.Unmarshal(data[:nl], &l.Trailer); err != nil {
		return fmt.Errorf("trailer %q: %w", data[:nl], err)
	}
	if rest := data[nl+1:]; len(rest) != 0 {
		return fmt.Errorf("%d bytes after the trailer", len(rest))
	}
	if l.Trailer.Records != uint64(len(l.Records)) {
		return fmt.Errorf("trailer promises %d records, log decodes %d", l.Trailer.Records, len(l.Records))
	}
	if got := fmt.Sprintf("%016x", l.chainFinal); got != l.Trailer.Chain {
		return fmt.Errorf("final chain digest %s does not match the trailer's %s", got, l.Trailer.Chain)
	}
	return nil
}
