// Package rowcodec is the system's one binary encoding for values and
// tuples and its one checksummed record framing.
//
// Values are a kind byte followed by a kind-shaped payload (see
// AppendValue); a tuple is a uvarint column count followed by its
// values. The wire protocol's row batches (internal/wire) carry values
// back to back, while the write-ahead log (internal/wal), the spill run
// files (internal/spill) and the engine's snapshots carry whole tuples —
// so a row that round-trips in one subsystem round-trips in all of them.
//
// Records on disk are framed as
//
//	uint32 big-endian payload length | payload | uint32 big-endian CRC32C(payload)
//
// by AppendRecord, and read back by CutRecord (from memory) or
// ReadRecord (from a stream), which report a torn frame, an impossible
// length or a checksum mismatch as typed errors. WAL segments, spill
// runs and snapshots all use this framing; the wire protocol keeps its
// own negotiated frame layout but shares the CRC32C table.
//
// Decoding is total: malformed input yields an error, never a panic,
// and no count read from the input is believed beyond what the
// remaining bytes could hold.
package rowcodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/storage"
	"repro/internal/value"
)

// MaxLen caps one framed payload. Anything larger in a length prefix is
// treated as corruption rather than attempted as an allocation.
const MaxLen = 1 << 28

// CRCTable is the CRC32C (Castagnoli) table every checksum in the system
// uses; Castagnoli has hardware support on amd64 and arm64.
var CRCTable = crc32.MakeTable(crc32.Castagnoli)

// AppendValue appends the encoding of v to dst: a kind byte, then
// varint for integers and dates (dates as their year*10000+month*100+day
// encoding), 8-byte big-endian IEEE bits for floats,
// uvarint-length-prefixed bytes for strings, nothing for NULL.
func AppendValue(dst []byte, v value.Value) []byte {
	switch v.Kind() {
	case value.KindInt:
		return binary.AppendVarint(append(dst, byte(value.KindInt)), v.Int())
	case value.KindFloat:
		return binary.BigEndian.AppendUint64(append(dst, byte(value.KindFloat)), math.Float64bits(v.Float()))
	case value.KindString:
		s := v.Str()
		dst = binary.AppendUvarint(append(dst, byte(value.KindString)), uint64(len(s)))
		return append(dst, s...)
	case value.KindDate:
		d := v.DateOf()
		return binary.AppendVarint(append(dst, byte(value.KindDate)), int64(d.Year())*10000+int64(d.Month())*100+int64(d.Day()))
	default:
		return append(dst, byte(value.KindNull))
	}
}

// DecodeValue parses one value from the front of p, returning the
// remaining bytes.
func DecodeValue(p []byte) (value.Value, []byte, error) {
	if len(p) == 0 {
		return value.Null, nil, fmt.Errorf("missing value")
	}
	kind := value.Kind(p[0])
	p = p[1:]
	switch kind {
	case value.KindNull:
		return value.Null, p, nil
	case value.KindInt:
		x, n := varint(p)
		if n <= 0 {
			return value.Null, nil, fmt.Errorf("bad int")
		}
		return value.NewInt(x), p[n:], nil
	case value.KindFloat:
		if len(p) < 8 {
			return value.Null, nil, fmt.Errorf("short float")
		}
		return value.NewFloat(math.Float64frombits(binary.BigEndian.Uint64(p))), p[8:], nil
	case value.KindString:
		l, n := uvarint(p)
		if n <= 0 || uint64(len(p)-n) < l {
			return value.Null, nil, fmt.Errorf("bad string length")
		}
		p = p[n:]
		return value.NewString(string(p[:l])), p[l:], nil
	case value.KindDate:
		enc, n := varint(p)
		if n <= 0 {
			return value.Null, nil, fmt.Errorf("bad date")
		}
		d, err := value.NewDate(int(enc/10000), int(enc/100)%100, int(enc%100))
		if err != nil {
			return value.Null, nil, fmt.Errorf("bad date payload")
		}
		return value.NewDateValue(d), p[n:], nil
	default:
		return value.Null, nil, fmt.Errorf("unknown kind %d", kind)
	}
}

// AppendTuple appends the encoding of t to dst: uvarint column count,
// then each value as AppendValue writes it.
func AppendTuple(dst []byte, t storage.Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	for _, v := range t {
		dst = AppendValue(dst, v)
	}
	return dst
}

// DecodeTuple parses one payload produced by AppendTuple. The whole
// payload must be consumed: trailing bytes are corruption.
func DecodeTuple(p []byte) (storage.Tuple, error) {
	t, rest, err := DecodeTuplePrefix(p)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("trailing bytes")
	}
	return t, nil
}

// DecodeTuplePrefix parses one tuple from the front of p, returning the
// remainder — for payloads that carry several tuples back to back.
func DecodeTuplePrefix(p []byte) (storage.Tuple, []byte, error) {
	ncols, n := uvarint(p)
	// Every value takes at least its kind byte, so a count larger than
	// the bytes left is corrupt — checked before allocating for it.
	if n <= 0 || ncols > uint64(len(p)-n) {
		return nil, nil, fmt.Errorf("bad column count")
	}
	p = p[n:]
	t := make(storage.Tuple, ncols)
	for i := range t {
		var err error
		if t[i], p, err = DecodeValue(p); err != nil {
			return nil, nil, err
		}
	}
	return t, p, nil
}

// uvarint and varint are binary.Uvarint and binary.Varint restricted to
// minimal encodings, so every accepted input has exactly one encoding.
func uvarint(p []byte) (uint64, int) {
	x, n := binary.Uvarint(p)
	if n > 1 && p[n-1] == 0 {
		return 0, 0
	}
	return x, n
}

func varint(p []byte) (int64, int) {
	x, n := binary.Varint(p)
	if n > 1 && p[n-1] == 0 {
		return 0, 0
	}
	return x, n
}

// Framing errors. CutRecord and ReadRecord return them wrapped with
// detail; callers match with errors.Is and rewrap them in their own
// corruption type.
var (
	ErrTorn     = errors.New("torn record")
	ErrTooLong  = errors.New("impossible record length")
	ErrChecksum = errors.New("checksum mismatch")
)

// AppendRecord appends payload to dst as one framed record.
func AppendRecord(dst, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(payload, CRCTable))
}

// CutRecord splits the first framed record off p, returning its
// verified payload (aliasing p) and the bytes after it.
func CutRecord(p []byte) (payload, rest []byte, err error) {
	if len(p) < 4 {
		return nil, nil, fmt.Errorf("%w: short length prefix", ErrTorn)
	}
	n := binary.BigEndian.Uint32(p)
	if n > MaxLen {
		return nil, nil, fmt.Errorf("%w %d", ErrTooLong, n)
	}
	if uint64(len(p)) < 8+uint64(n) {
		return nil, nil, fmt.Errorf("%w: short body", ErrTorn)
	}
	payload = p[4 : 4+n]
	if crc32.Checksum(payload, CRCTable) != binary.BigEndian.Uint32(p[4+n:]) {
		return nil, nil, ErrChecksum
	}
	return payload, p[8+n:], nil
}

// ReadRecord reads one framed record from r, reusing buf's capacity,
// and returns its verified payload. It returns io.EOF only when r ends
// exactly at a record boundary.
func ReadRecord(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: short length prefix", ErrTorn)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxLen {
		return nil, fmt.Errorf("%w %d", ErrTooLong, n)
	}
	if cap(buf) < int(n)+4 {
		buf = make([]byte, int(n)+4)
	}
	buf = buf[:int(n)+4]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("%w: short body", ErrTorn)
	}
	if crc32.Checksum(buf[:n], CRCTable) != binary.BigEndian.Uint32(buf[n:]) {
		return nil, ErrChecksum
	}
	return buf[:n], nil
}
