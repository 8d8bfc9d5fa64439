package rowcodec

import (
	"bytes"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
)

func date(t testing.TB, y, m, d int) value.Value {
	t.Helper()
	dt, err := value.NewDate(y, m, d)
	if err != nil {
		t.Fatal(err)
	}
	return value.NewDateValue(dt)
}

// sameValue is bit-exact equality: unlike value.Equal it tells -0 from
// +0 and matches NaN with NaN.
func sameValue(a, b value.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case value.KindFloat:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case value.KindNull:
		return true
	default:
		return a.Equal(b)
	}
}

func TestValueRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		v    value.Value
	}{
		{"null", value.Null},
		{"int zero", value.NewInt(0)},
		{"int positive", value.NewInt(42)},
		{"int negative", value.NewInt(-7)},
		{"int min", value.NewInt(math.MinInt64)},
		{"int max", value.NewInt(math.MaxInt64)},
		{"float", value.NewFloat(2.5)},
		{"float +0", value.NewFloat(0)},
		{"float -0", value.NewFloat(math.Copysign(0, -1))},
		{"float NaN", value.NewFloat(math.NaN())},
		{"float +Inf", value.NewFloat(math.Inf(1))},
		{"float -Inf", value.NewFloat(math.Inf(-1))},
		{"float tiny", value.NewFloat(math.SmallestNonzeroFloat64)},
		{"string empty", value.NewString("")},
		{"string quoted", value.NewString("O'BRIEN|x")},
		{"string zero bytes", value.NewString("a\x00b\x00")},
		{"string utf8", value.NewString("héllo, 世界")},
		{"date min", date(t, 0, 1, 1)},
		{"date max", date(t, 9999, 12, 31)},
		{"date paper", date(t, 1979, 7, 3)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			enc := AppendValue([]byte{0xAA}, c.v)
			if enc[0] != 0xAA {
				t.Fatal("AppendValue clobbered the prefix")
			}
			got, rest, err := DecodeValue(enc[1:])
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if len(rest) != 0 {
				t.Fatalf("%d bytes left over", len(rest))
			}
			if !sameValue(got, c.v) {
				t.Fatalf("round trip %v -> %v", c.v, got)
			}
		})
	}
}

func TestTupleRoundTrip(t *testing.T) {
	tuples := []storage.Tuple{
		{},
		{value.Null},
		{value.NewInt(1), value.NewString("a"), value.NewFloat(-1.5), date(t, 1980, 1, 1), value.Null},
	}
	var all []byte
	for _, tup := range tuples {
		enc := AppendTuple(nil, tup)
		got, err := DecodeTuple(enc)
		if err != nil {
			t.Fatalf("decode %v: %v", tup, err)
		}
		if len(got) != len(tup) {
			t.Fatalf("arity %d -> %d", len(tup), len(got))
		}
		for i := range tup {
			if !sameValue(got[i], tup[i]) {
				t.Fatalf("column %d: %v -> %v", i, tup[i], got[i])
			}
		}
		if _, err := DecodeTuple(append(enc, 0)); err == nil {
			t.Errorf("trailing byte after %v accepted", tup)
		}
		all = AppendTuple(all, tup)
	}
	// Back to back, as WAL insert records carry them.
	for i := range tuples {
		got, rest, err := DecodeTuplePrefix(all)
		if err != nil || len(got) != len(tuples[i]) {
			t.Fatalf("prefix %d: %v, %v", i, got, err)
		}
		all = rest
	}
	if len(all) != 0 {
		t.Fatalf("%d bytes left after all tuples", len(all))
	}
}

func TestDecodeValueErrors(t *testing.T) {
	for _, b := range [][]byte{
		nil,
		{99},                                  // unknown kind
		{byte(value.KindInt)},                 // missing varint
		{byte(value.KindInt), 0x80},           // truncated varint
		{byte(value.KindInt), 0x80, 0x00},     // non-minimal varint
		{byte(value.KindFloat)},               // short float
		{byte(value.KindFloat), 1, 2, 3},      // short float
		{byte(value.KindString), 5, 'a', 'b'}, // string past the end
		{byte(value.KindDate), 0},             // date 0 has no month
		{byte(value.KindDate), 0x01},          // negative date
	} {
		if _, _, err := DecodeValue(b); err == nil {
			t.Errorf("DecodeValue(%v): expected error", b)
		}
	}
}

// A corrupt column count must fail before allocating for it: four bytes
// claiming ~4M columns once cost 160 MB.
func TestDecodeTupleHugeCountIsCheap(t *testing.T) {
	in := []byte{0xff, 0xff, 0xff, 0x01}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeTuple(in)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("corrupt column count accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("rejecting a 4-byte input allocated %d bytes", got)
	}
}

func TestRecordFraming(t *testing.T) {
	payloads := [][]byte{[]byte("first"), {}, bytes.Repeat([]byte{7}, 300)}
	var stream []byte
	for _, p := range payloads {
		stream = AppendRecord(stream, p)
	}

	rest := stream
	for i, want := range payloads {
		got, next, err := CutRecord(rest)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("cut %d: %q, %v", i, got, err)
		}
		rest = next
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after cutting", len(rest))
	}

	r := bytes.NewReader(stream)
	var buf []byte
	for i, want := range payloads {
		got, err := ReadRecord(r, buf)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read %d: %q, %v", i, got, err)
		}
		buf = got
	}
	if _, err := ReadRecord(r, buf); err != io.EOF {
		t.Fatalf("read past the end: %v, want io.EOF", err)
	}
}

func TestRecordFramingErrors(t *testing.T) {
	good := AppendRecord(nil, []byte("payload"))
	flipped := append([]byte(nil), good...)
	flipped[6] ^= 0x01
	tooLong := append([]byte{0xff, 0xff, 0xff, 0xff}, good[4:]...)
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"short prefix", good[:3], ErrTorn},
		{"short body", good[:len(good)-1], ErrTorn},
		{"too long", tooLong, ErrTooLong},
		{"checksum", flipped, ErrChecksum},
	}
	for _, c := range cases {
		if _, _, err := CutRecord(c.in); !errors.Is(err, c.want) {
			t.Errorf("CutRecord %s: %v, want %v", c.name, err, c.want)
		}
		if _, err := ReadRecord(bytes.NewReader(c.in), nil); !errors.Is(err, c.want) {
			t.Errorf("ReadRecord %s: %v, want %v", c.name, err, c.want)
		}
	}
}

// FuzzDecodeTuple: decoding never panics, and every accepted input
// re-encodes to exactly the bytes it came from — the encoding is
// canonical, so no two byte strings decode to the same tuple.
func FuzzDecodeTuple(f *testing.F) {
	f.Add(AppendTuple(nil, storage.Tuple{}))
	f.Add(AppendTuple(nil, storage.Tuple{
		value.Null, value.NewInt(-3), value.NewFloat(math.NaN()),
		value.NewString("x\x00y"), date(f, 1979, 7, 3),
	}))
	f.Add([]byte{0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, in []byte) {
		tup, err := DecodeTuple(in)
		if err != nil {
			return
		}
		if out := AppendTuple(nil, tup); !bytes.Equal(out, in) {
			t.Fatalf("re-encoding differs:\n in  %x\n out %x", in, out)
		}
	})
}
