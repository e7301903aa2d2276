package store

import (
	"bytes"
	"strconv"
)

// The fast record decoder. Open reads every record of every segment, and
// nearly all of them are exactly what Put wrote:
//
//	{"t":"rec","rec":{"key":"<composite key>","ms":<number>}}
//
// decodeRecord reads that one image without reflection. It accepts a
// payload only when json.Unmarshal into a record would give the same key
// and bit for bit the same ms, and it hands everything else back to
// json.Unmarshal, so the format, the skip rules and the merge stay as
// they are. FuzzStoreRecordFastPath checks that contract against
// encoding/json.

// The fixed bytes json.Marshal writes around a record's key and ms.
var (
	recHead = []byte(`{"t":"rec","rec":{"key":"`)
	recMid  = []byte(`","ms":`)
	recTail = []byte(`}}`)
)

// decodeRecord returns a record payload's key (a subslice of p) and ms, or
// ok == false when p is not a record in Put's image. The key must be
// non-empty printable ASCII without a double quote, a backslash, '<', '>'
// or '&': exactly the keys json.Marshal copies verbatim, with no escape to
// undo.
func decodeRecord(p []byte) (key []byte, ms float64, ok bool) {
	if !bytes.HasPrefix(p, recHead) || !bytes.HasSuffix(p, recTail) {
		return nil, 0, false
	}
	body := p[len(recHead) : len(p)-len(recTail)]
	end := 0
	for end < len(body) && verbatim[body[end]] {
		end++
	}
	// The key ends at its closing quote; any other byte it stopped at is
	// one json.Marshal would have escaped.
	if end == 0 || !bytes.HasPrefix(body[end:], recMid) {
		return nil, 0, false
	}
	num := body[end+len(recMid):]
	if !jsonNumber(num) {
		return nil, 0, false
	}
	// encoding/json parses a float64 field the same way, so the bits agree;
	// a number out of float64's range fails both.
	ms, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return nil, 0, false
	}
	return body[:end], ms, true
}

// verbatim marks the bytes json.Marshal copies into a string unescaped:
// printable ASCII except the double quote, the backslash, '<', '>' and '&'.
var verbatim = func() (t [256]bool) {
	for c := 0x20; c <= 0x7e; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// jsonNumber reports whether b is one number in JSON's grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func jsonNumber(b []byte) bool {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return false
	}
	if i < len(b) && b[i] == '.' {
		if j := digits(b, i+1); j > i+1 {
			i = j
		} else {
			return false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j := digits(b, i); j > i {
			i = j
		} else {
			return false
		}
	}
	return i == len(b)
}

// digits returns the index of the first non-digit in b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
