package campaign

import (
	"bytes"
	"strconv"

	"repro/internal/frame"
)

// The fast owner-record decoder. A reopen reads every owner record of every
// campaign, and each is exactly what json.Marshal wrote for a record: the
// spec, the state with its transitions and the result as
// {canonical, summary}, fields in struct order, omitempty fields left out
// when empty, and no whitespace. decodeRecord reads that image without
// reflection. It accepts a payload only when json.Unmarshal into a record
// would give an equal record, and it hands everything else back to
// json.Unmarshal: the legacy "result" form, reordered or re-cased fields,
// whitespace, null, unknown fields and any string escape it does not
// decode. FuzzOwnerRecordFastPath checks that contract against
// encoding/json.

// decodeRecord returns the record p holds, or ok == false when p is not in
// json.Marshal's image of a record.
func decodeRecord(p []byte) (rec record, ok bool) {
	d := decoder{p: p}
	first := d.open()
	if d.member("spec", &first) {
		rec.Spec = new(Spec)
		d.spec(rec.Spec)
	}
	if d.member("state", &first) {
		rec.State = new(persistedState)
		d.state(rec.State)
	}
	if d.member("result", &first) {
		rec.Result = new(persistedResult)
		d.result(rec.Result)
	}
	d.lit('}')
	if d.bad || len(d.p) != 0 {
		return record{}, false
	}
	return rec, true
}

// decoder is a cursor over one payload. Once bad is set the payload is
// refused, whatever the reads after it return.
type decoder struct {
	p   []byte
	bad bool
}

// lit consumes the byte c, or marks the payload bad.
func (d *decoder) lit(c byte) {
	if len(d.p) == 0 || d.p[0] != c {
		d.bad = true
		return
	}
	d.p = d.p[1:]
}

// next consumes the comma before another array element, if one follows.
func (d *decoder) next() bool {
	if d.bad || len(d.p) == 0 || d.p[0] != ',' {
		return false
	}
	d.p = d.p[1:]
	return true
}

// open consumes the '{' that starts an object and returns the flag its
// members pass to member: no member read yet.
func (d *decoder) open() (first bool) {
	d.lit('{')
	return true
}

// member consumes `"name":`, after a comma unless it is the object's first
// member, and reports whether the next member is name. json.Marshal writes
// the members in struct order, so an absent one is an omitted empty field.
func (d *decoder) member(name string, first *bool) bool {
	p := d.p
	if !*first {
		if len(p) == 0 || p[0] != ',' {
			return false
		}
		p = p[1:]
	}
	if d.bad || len(p) < len(name)+3 || p[0] != '"' || string(p[1:1+len(name)]) != name || p[1+len(name)] != '"' || p[2+len(name)] != ':' {
		return false
	}
	d.p = p[len(name)+3:]
	*first = false
	return true
}

func (d *decoder) spec(s *Spec) {
	first := d.open()
	if d.member("tenant", &first) {
		s.Tenant = d.str()
	}
	if d.member("weight", &first) {
		s.Weight = d.float()
	}
	if d.member("method", &first) {
		s.Method = d.str()
	}
	if d.member("stencil", &first) {
		s.Stencil = d.str()
	}
	if d.member("arch", &first) {
		s.Arch = d.str()
	}
	if d.member("dataset_size", &first) {
		s.DatasetSize = d.int()
	}
	if d.member("budget_s", &first) {
		s.BudgetS = d.float()
	}
	if d.member("seed", &first) {
		s.Seed = d.int64()
	}
	if d.member("warm_start", &first) {
		s.WarmStart = d.int()
	}
	if d.member("warm_keys", &first) {
		// json.Marshal leaves an empty list out, so the list read here
		// holds at least one key.
		d.lit('[')
		s.WarmKeys = []string{d.str()}
		for d.next() {
			s.WarmKeys = append(s.WarmKeys, d.str())
		}
		d.lit(']')
	}
	if d.member("fingerprint", &first) {
		s.Fingerprint = d.str()
	}
	d.lit('}')
}

func (d *decoder) state(s *persistedState) {
	first := d.open()
	if d.member("state", &first) {
		s.State = State(d.str())
	}
	if d.member("settled_s", &first) {
		s.SettledS = d.float()
	}
	if d.member("transitions", &first) {
		// json.Marshal writes a nil history as null and an empty one as [].
		if bytes.HasPrefix(d.p, []byte("null")) {
			d.p = d.p[4:]
			d.lit('}')
			return
		}
		d.lit('[')
		s.Transitions = []Transition{}
		if len(d.p) > 0 && d.p[0] == ']' {
			d.p = d.p[1:]
		} else {
			s.Transitions = append(s.Transitions, d.transition())
			for d.next() {
				s.Transitions = append(s.Transitions, d.transition())
			}
			d.lit(']')
		}
	}
	d.lit('}')
}

func (d *decoder) transition() (t Transition) {
	first := d.open()
	if d.member("from", &first) {
		t.From = State(d.str())
	}
	if d.member("to", &first) {
		t.To = State(d.str())
	}
	if d.member("at_unix_nano", &first) {
		t.AtUnixNano = d.int64()
	}
	if d.member("reason", &first) {
		t.Reason = d.str()
	}
	d.lit('}')
	return t
}

// result reads a result record of today's form; the legacy "result"
// member is left for json.Unmarshal.
func (d *decoder) result(r *persistedResult) {
	first := d.open()
	if d.member("canonical", &first) {
		r.Canonical = d.str()
	}
	if d.member("summary", &first) {
		r.Summary = new(summary)
		d.summary(r.Summary)
	}
	d.lit('}')
}

func (d *decoder) summary(s *summary) {
	first := d.open()
	if d.member("found", &first) {
		s.Found = d.bool()
	}
	if d.member("best_key", &first) {
		s.BestKey = d.str()
	}
	if d.member("best_ms", &first) {
		s.BestMS = d.float()
	}
	if d.member("spent_s", &first) {
		s.SpentS = d.float()
	}
	if d.member("evals", &first) {
		s.Evals = d.int()
	}
	if d.member("replayed", &first) {
		s.Replayed = d.int()
	}
	if d.member("store_hits", &first) {
		s.StoreHits = d.int()
	}
	if d.member("store_misses", &first) {
		s.StoreMisses = d.int()
	}
	if d.member("warm_start_seeds", &first) {
		s.WarmStartSeeds = d.int()
	}
	d.lit('}')
}

// str reads a string whose bytes are printable ASCII, with only the escapes
// json.Marshal writes for printable ASCII, '\n', '\r' and '\t': \" \\ \n
// \r \t and the < > & of its HTML escaping.
func (d *decoder) str() string {
	d.lit('"')
	p := d.p
	i := 0
	for i < len(p) && plain[p[i]] {
		i++
	}
	if i < len(p) && p[i] == '"' { // no escape: the common case
		d.p = p[i+1:]
		return string(p[:i])
	}
	// The rest of the payload bounds the decoded string.
	b := append(make([]byte, 0, len(p)), p[:i]...)
	for !d.bad {
		switch {
		case i >= len(p):
			d.bad = true
		case plain[p[i]]:
			b = append(b, p[i])
			i++
		case p[i] == '"':
			d.p = p[i+1:]
			return string(b)
		case p[i] != '\\' || i+1 >= len(p):
			d.bad = true
		default:
			c, n := unescape(p[i+1:])
			if n == 0 {
				d.bad = true
			}
			b = append(b, c)
			i += 1 + n
		}
	}
	return ""
}

// unescape decodes the escape after a backslash at the start of p, or
// returns n == 0 for one str does not take.
func unescape(p []byte) (c byte, n int) {
	switch p[0] {
	case '"', '\\':
		return p[0], 1
	case 'n':
		return '\n', 1
	case 'r':
		return '\r', 1
	case 't':
		return '\t', 1
	case 'u':
		if len(p) >= 5 && string(p[1:3]) == "00" {
			switch string(p[3:5]) {
			case "3c":
				return '<', 5
			case "3e":
				return '>', 5
			case "26":
				return '&', 5
			}
		}
	}
	return 0, 0
}

// plain marks the bytes a string may hold unescaped: printable ASCII
// except the double quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c <= 0x7e; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// number consumes one number in JSON's grammar and returns its bytes.
func (d *decoder) number() []byte {
	n := frame.NumberLen(d.p)
	if n == 0 {
		d.bad = true
	}
	num := d.p[:n]
	d.p = d.p[n:]
	return num
}

// float reads a number as encoding/json reads one into a float64: a value
// out of float64's range fails both.
func (d *decoder) float() float64 {
	f, err := strconv.ParseFloat(string(d.number()), 64)
	if err != nil {
		d.bad = true
	}
	return f
}

// int and int64 read a number as encoding/json reads one into an int or
// an int64: an integer literal in the type's range. strconv.ParseInt
// refuses a fraction or an exponent, as encoding/json does there.
func (d *decoder) int() int     { return int(d.integer(strconv.IntSize)) }
func (d *decoder) int64() int64 { return d.integer(64) }

func (d *decoder) integer(bits int) int64 {
	n, err := strconv.ParseInt(string(d.number()), 10, bits)
	if err != nil {
		d.bad = true
	}
	return n
}

func (d *decoder) bool() bool {
	switch {
	case len(d.p) >= 4 && string(d.p[:4]) == "true":
		d.p = d.p[4:]
		return true
	case len(d.p) >= 5 && string(d.p[:5]) == "false":
		d.p = d.p[5:]
	default:
		d.bad = true
	}
	return false
}
