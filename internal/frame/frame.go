// Package frame is the framing behind the campaign journal and the result
// store's segments. A file is a sequence of frames:
//
//	[u32le payload length][u32le CRC32C-Castagnoli of payload][JSON payload]
//
// Write JSON-encodes one value into a frame, and Next validates one frame —
// length bounds, then the CRC — so a torn or bit-flipped frame is always an
// error, never a wrong payload. Decoding a payload, and what to do about a
// bad frame, is the caller's: the journal truncates its torn tail, the
// store skips it (the tail may be a live writer's).
package frame

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	// HeaderLen is the fixed frame-header size: length plus CRC.
	HeaderLen = 8

	// maxPayload bounds a single frame; anything larger is corruption (a
	// torn or flipped length prefix), not a legitimate record.
	maxPayload = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Next decodes the frame starting at off in data and returns its payload
// (a subslice of data) and the offset of the frame after it.
func Next(data []byte, off int) (payload []byte, next int, err error) {
	if off+HeaderLen > len(data) {
		return nil, 0, fmt.Errorf("short frame header at %d", off)
	}
	n := int(binary.LittleEndian.Uint32(data[off : off+4]))
	sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
	if n == 0 || n > maxPayload {
		return nil, 0, fmt.Errorf("implausible frame length %d at %d", n, off)
	}
	start := off + HeaderLen
	if start+n > len(data) {
		return nil, 0, fmt.Errorf("short frame payload at %d", off)
	}
	payload = data[start : start+n]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, 0, fmt.Errorf("crc mismatch at %d", off)
	}
	return payload, start + n, nil
}

// Write JSON-encodes v and writes it to w as one frame, in two Write calls:
// the header, then the payload. Errors read "marshal: …" or "write: …";
// callers prefix their own package.
func Write(w io.Writer, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("marshal: %w", err)
	}
	var hdr [HeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	return nil
}
