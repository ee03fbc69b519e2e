package codec

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// The two framed files keep the bytes they had when each wrote its own
// header: the checkpoint store's 16-byte "RCKP" version-2 header and the
// seeded history's 12-byte "RSHF" one.
func TestFramePinsFileFormats(t *testing.T) {
	payload := []byte("rotary\x00\xff")
	cases := []struct {
		magic    string
		payload  []byte
		wantHex  string
		describe string
	}{
		{"RCKP\x02\x00\x00\x00", payload, "52434b500200000008000000e7b05c75726f7461727900ff", "checkpoint"},
		{"RCKP\x02\x00\x00\x00", nil, "52434b50020000000000000000000000", "empty checkpoint"},
		{"RSHF", payload, "5253484608000000e7b05c75726f7461727900ff", "seeded history"},
		{"RSHF", nil, "525348460000000000000000", "empty seeded history"},
	}
	for _, c := range cases {
		frame := Frame(c.magic, c.payload)
		if got := hex.EncodeToString(frame); got != c.wantHex {
			t.Errorf("%s frame %s, want %s", c.describe, got, c.wantHex)
		}
		back, err := Unframe(c.magic, frame)
		if err != nil || !bytes.Equal(back, c.payload) {
			t.Errorf("%s: Unframe = %q, %v; want the payload back", c.describe, back, err)
		}
	}
}

// Unframe rejects every frame that is not whole and unchanged, and hands
// back no payload bytes when it does.
func TestUnframeRejects(t *testing.T) {
	const magic = "RSHF"
	good := Frame(magic, []byte("payload"))
	spoil := func(f func([]byte) []byte) []byte { return f(bytes.Clone(good)) }
	cases := map[string][]byte{
		"empty":           nil,
		"short":           good[:len(magic)+7],
		"wrong magic":     spoil(func(b []byte) []byte { b[0] = 'X'; return b }),
		"other magic":     Frame("RCKP", []byte("payload")),
		"torn tail":       good[:len(good)-1],
		"extra byte":      append(bytes.Clone(good), 0),
		"length mismatch": spoil(func(b []byte) []byte { b[len(magic)]++; return b }),
		"CRC mismatch":    spoil(func(b []byte) []byte { b[len(magic)+4] ^= 1; return b }),
		"flipped payload": spoil(func(b []byte) []byte { b[len(b)-1] ^= 1; return b }),
	}
	for name, frame := range cases {
		if payload, err := Unframe(magic, frame); err == nil || payload != nil {
			t.Errorf("%s: Unframe = %q, %v; want an error and no payload", name, payload, err)
		}
	}
}

// Every field shape survives its appender and Dec bit for bit, and every
// truncation of the encoding latches an error instead of half-reading.
func TestDecRoundTrip(t *testing.T) {
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1.5}
	b := []byte{7}
	b = binary.AppendUvarint(b, 300)
	b = binary.AppendVarint(b, -300)
	b = AppendName(b, "name")
	b = AppendName(b, "\x00\x01\x02")
	b = binary.AppendUvarint(b, uint64(len(floats)))
	for _, f := range floats {
		b = AppendFloat(b, f)
	}
	read := func(d *Dec) {
		if v := d.Byte(); d.Err() == nil && v != 7 {
			t.Errorf("Byte %d", v)
		}
		if v := d.Uvarint(); d.Err() == nil && v != 300 {
			t.Errorf("Uvarint %d", v)
		}
		if v := d.Varint(); d.Err() == nil && v != -300 {
			t.Errorf("Varint %d", v)
		}
		if v := d.Name(); d.Err() == nil && v != "name" {
			t.Errorf("Name %q", v)
		}
		if v := d.Bytes(); d.Err() == nil && !bytes.Equal(v, []byte{0, 1, 2}) {
			t.Errorf("Bytes %v", v)
		}
		n := d.Count(8)
		for i := 0; i < n; i++ {
			if v := d.Float(); d.Err() == nil && math.Float64bits(v) != math.Float64bits(floats[i]) {
				t.Errorf("Float %d: bits %016x, want %016x", i, math.Float64bits(v), math.Float64bits(floats[i]))
			}
		}
	}
	d := NewDec(b)
	read(d)
	if err := d.End(); err != nil {
		t.Fatal(err)
	}
	for n := range len(b) {
		d := NewDec(b[:n])
		read(d)
		if d.End() == nil {
			t.Fatalf("a %d-byte prefix of the %d-byte encoding decoded cleanly", n, len(b))
		}
	}
	if err := NewDec(append(bytes.Clone(b), 0)).End(); err == nil {
		t.Error("End accepted unread bytes")
	}
}
