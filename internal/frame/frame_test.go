package frame

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// TestWriteNextAtOffset: frames Write puts after other bytes read back
// through Next at their offsets, each with the payload json.Marshal wrote
// and the offset of the frame after it.
func TestWriteNextAtOffset(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("lead")
	first := buf.Len()
	if err := Write(&buf, map[string]int{"a": 1}); err != nil {
		t.Fatal(err)
	}
	second := buf.Len()
	if err := Write(&buf, "b"); err != nil {
		t.Fatal(err)
	}
	end := buf.Len()
	buf.WriteString("tail")
	for _, tc := range []struct {
		off, next int
		payload   string
	}{
		{first, second, `{"a":1}`},
		{second, end, `"b"`},
	} {
		payload, next, err := Next(buf.Bytes(), tc.off)
		if err != nil || string(payload) != tc.payload || next != tc.next {
			t.Fatalf("Next at %d read %q, next %d (%v), want %q, next %d", tc.off, payload, next, err, tc.payload, tc.next)
		}
	}
}

// TestNextRefuses: Next refuses each kind of bad frame, and its error names
// the offset the frame starts at.
func TestNextRefuses(t *testing.T) {
	var good bytes.Buffer
	if err := Write(&good, "ok"); err != nil {
		t.Fatal(err)
	}
	valid := good.Bytes() // a frame of the 4-byte payload "ok", quoted
	crc := binary.LittleEndian.Uint32(valid[4:8])
	frameOf := func(n, sum uint32, payload string) []byte {
		b := binary.LittleEndian.AppendUint32(nil, n)
		return append(binary.LittleEndian.AppendUint32(b, sum), payload...)
	}
	for _, tc := range []struct {
		name string
		bad  []byte
		want string
	}{
		{"short header", valid[:HeaderLen-1], "short frame header"},
		{"zero length", frameOf(0, crc, `"ok"`), "implausible frame length 0"},
		{"length over 64 MiB", frameOf(maxPayload+1, crc, `"ok"`), fmt.Sprintf("implausible frame length %d", maxPayload+1)},
		{"length of 64 MiB, short payload", frameOf(maxPayload, crc, `"ok"`), "short frame payload"},
		{"short payload", valid[:len(valid)-1], "short frame payload"},
		{"crc mismatch", frameOf(4, crc+1, `"ok"`), "crc mismatch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The bad frame follows a good one, so its offset is not 0.
			off := len(valid)
			data := append(append([]byte(nil), valid...), tc.bad...)
			want := fmt.Sprintf("%s at %d", tc.want, off)
			if payload, _, err := Next(data, off); err == nil || err.Error() != want {
				t.Fatalf("Next read %q (%v), want the error %q", payload, err, want)
			}
		})
	}
}
