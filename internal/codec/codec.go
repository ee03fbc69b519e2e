// Package codec holds the byte-level pieces every hand-encoded Rotary
// format shares: a checksummed frame, the appenders for the two field
// shapes the formats have in common, and one decoder for bytes that are
// not trusted.
//
// A frame is
//
//	magic | u32 LE payload length | u32 LE CRC32 (IEEE) of the payload | payload
//
// The checkpoint store frames job state under "RCKP\x02\x00\x00\x00"
// (the magic, format version 2 and three reserved bytes), and the seeded
// history is framed under "RSHF". A name is a uvarint length and its
// bytes; a float is its IEEE-754 bits, little-endian, so NaN, ±Inf and
// −0 survive a round trip.
package codec

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Frame returns payload behind magic, its length and its CRC32.
func Frame(magic string, payload []byte) []byte {
	b := make([]byte, 0, len(magic)+8+len(payload))
	b = append(b, magic...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// Unframe returns the payload of a frame Frame wrote under magic. It
// never returns bytes that failed the length or checksum check.
func Unframe(magic string, frame []byte) ([]byte, error) {
	header := len(magic) + 8
	if len(frame) < header {
		return nil, fmt.Errorf("%d-byte frame shorter than its %d-byte header", len(frame), header)
	}
	if string(frame[:len(magic)]) != magic {
		return nil, fmt.Errorf("bad magic %q", frame[:len(magic)])
	}
	payload := frame[header:]
	if n := binary.LittleEndian.Uint32(frame[len(magic):]); uint64(n) != uint64(len(payload)) {
		return nil, fmt.Errorf("header claims %d payload bytes, frame has %d", n, len(payload))
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(frame[len(magic)+4:]); got != want {
		return nil, fmt.Errorf("CRC32 mismatch (stored %08x, computed %08x)", want, got)
	}
	return payload, nil
}

// AppendName appends s with its uvarint length, as Dec.Name reads it.
func AppendName(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendFloat appends f's IEEE-754 bits, little-endian.
func AppendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// Dec reads fields off bytes that are not trusted. The first truncated
// or malformed field latches an error and every later read returns zero,
// so a decoder reads straight through and checks the error once, when
// the whole input has been walked.
type Dec struct {
	b   []byte
	err error
}

// NewDec starts reading b.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err reports the latched error.
func (d *Dec) Err() error { return d.err }

// More reports whether bytes are left and no error is latched.
func (d *Dec) More() bool { return d.err == nil && len(d.b) > 0 }

// End reports the first decode error or, failing that, bytes left unread.
func (d *Dec) End() error {
	if d.err == nil && len(d.b) > 0 {
		d.Failf("%d trailing bytes", len(d.b))
	}
	return d.err
}

// Failf latches a decode error; the first one wins.
func (d *Dec) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// take consumes the next n bytes.
func (d *Dec) take(n int) []byte {
	if n > len(d.b) {
		d.Failf("truncated: %d bytes wanted, %d left", n, len(d.b))
	}
	if d.err != nil {
		return nil
	}
	out := d.b[:n:n]
	d.b = d.b[n:]
	return out
}

// Byte reads one byte.
func (d *Dec) Byte() byte {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

// Uvarint reads one unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.Failf("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Varint reads one zigzag varint.
func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.Failf("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Count reads a uvarint element count and rejects it unless that many
// elements of at least minBytes each fit in the input left, so nothing
// sized from the result exceeds O(len(input)).
func (d *Dec) Count(minBytes int) int {
	v := d.Uvarint()
	if v > uint64(len(d.b)/minBytes) {
		d.Failf("count %d exceeds the %d bytes left", v, len(d.b))
		return 0
	}
	return int(v)
}

// Bytes reads the length-prefixed bytes AppendName wrote. The result
// aliases the input.
func (d *Dec) Bytes() []byte { return d.take(d.Count(1)) }

// Name reads the length-prefixed string AppendName wrote.
func (d *Dec) Name() string { return string(d.Bytes()) }

// Uint64 reads eight bytes, little-endian.
func (d *Dec) Uint64() uint64 {
	if b := d.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Float reads the eight bytes AppendFloat wrote.
func (d *Dec) Float() float64 { return math.Float64frombits(d.Uint64()) }
