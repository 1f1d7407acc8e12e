// The /search wire format, written and read without reflection, on
// every hop of a routed query: a client's body (DecodeSearch), the
// router's per-shard sub-request, the shard's reply and the router's
// reply. The encoders write exactly json.Marshal's bytes. The scanners
// read the form those bytes take — known lowercase keys in any order,
// each at most once, JSON numbers, printable ASCII strings without
// escapes, no null — as encoding/json does, and decline (ok = false)
// anything else, which the caller hands to encoding/json. So every
// accepted request, refusal, error string and wire byte is
// encoding/json's; FuzzSearchWire and FuzzDecodeSearch hold the two to
// each other.
package server

import (
	"math"
	"net/http"
	"strconv"
)

// AppendSearchRequest appends json.Marshal(*r) to b. r must be a
// request index.CheckRequest and pqfastscan.ParseKernel accepted: a
// finite query and a kernel name, which encoding/json writes as is.
func AppendSearchRequest(b []byte, r *SearchRequest) []byte {
	b = appendArray(append(b, `{"query":`...), r.Query == nil, len(r.Query), func(b []byte, i int) []byte {
		return appendFloat32(b, r.Query[i])
	})
	b = strconv.AppendInt(append(b, `,"k":`...), int64(r.K), 10)
	if r.NProbe != 0 {
		b = strconv.AppendInt(append(b, `,"nprobe":`...), int64(r.NProbe), 10)
	}
	if len(r.Cells) > 0 {
		b = appendInts(append(b, `,"cells":`...), r.Cells)
	}
	if r.Kernel != "" {
		b = append(append(append(b, `,"kernel":"`...), r.Kernel...), '"')
	}
	return append(b, '}')
}

// AppendSearchResponse appends json.Marshal(*r) to b. ok is false, and
// b is to be discarded, when a distance is not finite: json.Marshal
// refuses it.
func AppendSearchResponse(b []byte, r *SearchResponse) (_ []byte, ok bool) {
	ok = true
	b = appendArray(append(b, `{"results":`...), r.Results == nil, len(r.Results), func(b []byte, i int) []byte {
		d := r.Results[i].Distance
		ok = ok && !math.IsInf(float64(d), 0) && !math.IsNaN(float64(d))
		b = strconv.AppendInt(append(b, `{"id":`...), r.Results[i].ID, 10)
		return append(appendFloat32(append(b, `,"distance":`...), d), '}')
	})
	b = appendInts(append(b, `,"partitions":`...), r.Partitions)
	if c := r.Coverage; c != nil {
		b = strconv.AppendInt(append(b, `,"coverage":{"cells_answered":`...), int64(c.CellsAnswered), 10)
		b = append(strconv.AppendInt(append(b, `,"cells_total":`...), int64(c.CellsTotal), 10), '}')
	}
	return append(b, '}'), ok
}

// appendFloat32 formats a finite f as encoding/json does a float32:
// shortest form, in exponent form below 1e-6 and from 1e21 on, with a
// one-digit negative exponent unpadded (1e-7, not 1e-07).
func appendFloat32(b []byte, f float32) []byte {
	format := byte('f')
	if abs := float32(math.Abs(float64(f))); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, float64(f), format, -1, 32)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

func appendInts(b []byte, v []int) []byte {
	return appendArray(b, v == nil, len(v), func(b []byte, i int) []byte {
		return strconv.AppendInt(b, int64(v[i]), 10)
	})
}

// appendArray appends null for a nil slice, else the n elements elem
// appends, in brackets.
func appendArray(b []byte, isNil bool, n int, elem func(b []byte, i int) []byte) []byte {
	if isNil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = elem(b, i)
	}
	return append(b, ']')
}

// ScanSearchRequest reads data, in the form this file reads, into *out
// as json.Unmarshal would. ok is false, and *out untouched, on anything
// else — including a key encoding/json would match only ignoring case,
// and an unknown key, which a /search body may not carry.
func ScanSearchRequest(data []byte, out *SearchRequest) (ok bool) {
	s := wireScanner{b: data}
	var r SearchRequest
	var seen uint8
	ok = s.object(func(key []byte) bool {
		switch string(key) {
		case "query":
			return once(&seen, 1) && scanArray(&s, &r.Query, s.float32)
		case "k":
			return once(&seen, 2) && s.int(&r.K)
		case "nprobe":
			return once(&seen, 4) && s.int(&r.NProbe)
		case "cells":
			return once(&seen, 8) && scanArray(&s, &r.Cells, s.int)
		case "kernel":
			kernel, isStr := s.str()
			r.Kernel = string(kernel)
			return once(&seen, 16) && isStr
		}
		return false
	}) && s.end()
	if ok {
		*out = r
	}
	return ok
}

// ScanSearchResponse reads data, in the form this file reads, into *out
// as json.Unmarshal would into a zero SearchResponse. ok is false, and
// *out untouched, on anything else, an unknown key included.
func ScanSearchResponse(data []byte, out *SearchResponse) (ok bool) {
	s := wireScanner{b: data}
	var r SearchResponse
	var seen uint8
	ok = s.object(func(key []byte) bool {
		switch string(key) {
		case "results":
			return once(&seen, 1) && scanArray(&s, &r.Results, func(n *SearchNeighbor) bool {
				var seen uint8
				return s.object(func(key []byte) bool {
					switch string(key) {
					case "id":
						return once(&seen, 1) && s.int64(&n.ID)
					case "distance":
						return once(&seen, 2) && s.float32(&n.Distance)
					}
					return false
				})
			})
		case "partitions":
			return once(&seen, 2) && scanArray(&s, &r.Partitions, s.int)
		case "coverage":
			c, seenC := new(Coverage), uint8(0)
			r.Coverage = c
			return once(&seen, 4) && s.object(func(key []byte) bool {
				switch string(key) {
				case "cells_answered":
					return once(&seenC, 1) && s.int(&c.CellsAnswered)
				case "cells_total":
					return once(&seenC, 2) && s.int(&c.CellsTotal)
				}
				return false
			})
		}
		return false
	}) && s.end()
	if ok {
		*out = r
	}
	return ok
}

// once sets bit in *seen and reports whether it was clear: the key it
// stands for had not been read before.
func once(seen *uint8, bit uint8) bool {
	first := *seen&bit == 0
	*seen |= bit
	return first
}

// wireScanner reads JSON from b[i:]. Each method skips the whitespace
// before its token.
type wireScanner struct {
	b []byte
	i int
}

func (s *wireScanner) skip() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\n' || s.b[s.i] == '\r') {
		s.i++
	}
}

// next consumes c if it is the next token.
func (s *wireScanner) next(c byte) bool {
	s.skip()
	return s.accept(c, c)
}

// accept consumes the next byte, with no whitespace skipped, if it is
// c or d.
func (s *wireScanner) accept(c, d byte) bool {
	if s.i < len(s.b) && (s.b[s.i] == c || s.b[s.i] == d) {
		s.i++
		return true
	}
	return false
}

// end reports whether nothing but whitespace is left.
func (s *wireScanner) end() bool {
	s.skip()
	return s.i == len(s.b)
}

// list reads open, elements separated by commas, and close.
func (s *wireScanner) list(open, close byte, elem func() bool) bool {
	if !s.next(open) {
		return false
	}
	if s.next(close) {
		return true
	}
	for elem() {
		if s.next(close) {
			return true
		}
		if !s.next(',') {
			return false
		}
	}
	return false
}

// object reads {"key": value, ...}; field reads the value of each key,
// and declines a key it does not know or has read before.
func (s *wireScanner) object(field func(key []byte) bool) bool {
	return s.list('{', '}', func() bool {
		key, ok := s.str()
		return ok && s.next(':') && field(key)
	})
}

// str reads a string of printable ASCII other than the quote and
// backslash, and returns its contents.
func (s *wireScanner) str() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	start := s.i
	for s.i < len(s.b) && s.b[s.i] >= 0x20 && s.b[s.i] < 0x7f && s.b[s.i] != '"' && s.b[s.i] != '\\' {
		s.i++
	}
	v := s.b[start:s.i]
	return v, s.accept('"', '"')
}

// number reads a token of JSON's number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, for strconv to parse
// as encoding/json does; where there is none it returns nil, which
// strconv refuses.
func (s *wireScanner) number() []byte {
	s.skip()
	start := s.i
	s.accept('-', '-')
	ok := s.accept('0', '0') || s.digits()
	if ok && s.accept('.', '.') {
		ok = s.digits()
	}
	if ok && s.accept('e', 'E') {
		s.accept('+', '-')
		ok = s.digits()
	}
	if !ok {
		return nil
	}
	return s.b[start:s.i]
}

// digits consumes a run of decimal digits and reports whether it was
// not empty.
func (s *wireScanner) digits() bool {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > start
}

func (s *wireScanner) int64(v *int64) bool {
	n, err := strconv.ParseInt(string(s.number()), 10, 64)
	*v = n
	return err == nil
}

func (s *wireScanner) int(v *int) bool {
	n, err := strconv.ParseInt(string(s.number()), 10, strconv.IntSize)
	*v = int(n)
	return err == nil
}

func (s *wireScanner) float32(v *float32) bool {
	f, err := strconv.ParseFloat(string(s.number()), 32)
	*v = float32(f)
	return err == nil
}

// scanArray reads a JSON array into a fresh, non-nil *v, each element
// by elem.
func scanArray[T any](s *wireScanner, v *[]T, elem func(*T) bool) bool {
	*v = []T{}
	return s.list('[', ']', func() bool {
		*v = append(*v, *new(T))
		return elem(&(*v)[len(*v)-1])
	})
}

// WriteSearchResponse answers a /search with 200 and resp: the bytes
// WriteJSON writes, json.Marshal's and a newline.
func WriteSearchResponse(w http.ResponseWriter, resp *SearchResponse) {
	b, ok := AppendSearchResponse(make([]byte, 0, 64+48*len(resp.Results)+8*len(resp.Partitions)), resp)
	if !ok {
		WriteJSON(w, http.StatusOK, resp)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(append(b, '\n'))
}
