package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http/httptest"
	"pqfastscan"
	"slices"
	"strings"
	"testing"
)

// wireFloats are the float32 bit patterns where encoding/json's float
// formatting changes course: zeros, subnormals, either side of the
// exponent-form cut-offs 1e-6 and 1e21, one-digit negative exponents,
// the largest finite values and the values it refuses.
var wireFloats = []float32{
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(1), math.Float32frombits(0x007fffff), -math.Float32frombits(1),
	1e-6, math.Nextafter32(1e-6, 0), math.Nextafter32(1e-6, 1), -1e-6,
	1e21, math.Nextafter32(1e21, 0), math.Nextafter32(1e21, math.MaxFloat32), -1e21,
	1e-7, -3.5e-9, 1.5e-10, 123.456, 0.1, 1e20,
	math.MaxFloat32, -math.MaxFloat32,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
}

// wireInts are the int64 ids at and near the ends of the range.
var wireInts = []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64, math.MinInt64 + 1, 1 << 53}

// wireRaw packs floats and ints into one fuzz input, as wireValues
// unpacks it: a 4-byte float then an 8-byte int, repeated.
func wireRaw(fs []float32, is []int64) []byte {
	var raw []byte
	for i := 0; i < max(len(fs), len(is)); i++ {
		raw = binary.LittleEndian.AppendUint32(raw, math.Float32bits(fs[i%len(fs)]))
		raw = binary.LittleEndian.AppendUint64(raw, uint64(is[i%len(is)]))
	}
	return raw
}

// wireValues builds a request and a response from a fuzz input. kernel
// picks the request's kernel: none, or a name ParseKernel accepts. flags
// chooses nil against empty for each slice and whether Coverage is set.
func wireValues(raw []byte, k, nprobe int, kernel, flags uint8) (SearchRequest, SearchResponse) {
	req := SearchRequest{Query: []float32{}, K: k, NProbe: nprobe}
	if kernels := pqfastscan.Kernels(); int(kernel)%(len(kernels)+1) > 0 {
		req.Kernel = kernels[int(kernel)%(len(kernels)+1)-1].String()
	}
	resp := SearchResponse{Results: []SearchNeighbor{}, Partitions: []int{}}
	for ; len(raw) >= 12; raw = raw[12:] {
		f := math.Float32frombits(binary.LittleEndian.Uint32(raw))
		n := int64(binary.LittleEndian.Uint64(raw[4:]))
		req.Query = append(req.Query, f)
		req.Cells = append(req.Cells, int(n))
		resp.Results = append(resp.Results, pqfastscan.Result{ID: n, Distance: f})
		resp.Partitions = append(resp.Partitions, int(n>>1))
	}
	if flags&1 != 0 {
		req.Query = nil
	}
	if flags&2 != 0 {
		req.Cells = nil
	} else if flags&4 != 0 {
		req.Cells = []int{}
	}
	if flags&8 != 0 {
		resp.Results = nil
	}
	if flags&16 != 0 {
		resp.Partitions = nil
	}
	if flags&32 != 0 {
		resp.Coverage = &Coverage{CellsAnswered: k, CellsTotal: nprobe}
	}
	return req, resp
}

// FuzzSearchWire holds the codec to encoding/json. AppendSearchRequest
// writes json.Marshal's bytes for every request it may be given (a
// finite query; any kernel value a sub-request carries), and
// AppendSearchResponse for every response, declining exactly what
// json.Marshal refuses (a non-finite distance). The scanners read those
// bytes — as they are, with the newline json.Encoder ends them with,
// and with whitespace between every two tokens — to what json.Unmarshal
// reads, and decline them exactly when they hold a null.
func FuzzSearchWire(f *testing.F) {
	f.Add(wireRaw(wireFloats, wireInts), 100, 0, uint8(0), uint8(0), []byte{0, 1, 2, 3})
	f.Add(wireRaw(wireFloats[:1], wireInts), -5, 3, uint8(3), uint8(32|4), []byte{3})
	f.Add(wireRaw(wireFloats[:len(wireFloats)-3], wireInts[:1]), math.MaxInt, math.MinInt, uint8(1), uint8(1|8|16), []byte{})
	f.Add([]byte{}, 0, 0, uint8(2), uint8(2|32), []byte{1})
	for i, x := range wireFloats {
		f.Add(wireRaw([]float32{x}, wireInts[1:2]), 10, 1, uint8(i), uint8(0), []byte{2})
	}
	f.Fuzz(func(t *testing.T, raw []byte, k, nprobe int, kernel, flags uint8, ws []byte) {
		req, resp := wireValues(raw, k, nprobe, kernel, flags)

		if want, err := json.Marshal(req); err == nil {
			if got := AppendSearchRequest(nil, &req); !bytes.Equal(got, want) {
				t.Fatalf("request: wrote\n%q\njson.Marshal writes\n%q", got, want)
			}
			for _, body := range wireForms(want, ws) {
				var ref, scanned SearchRequest
				if err := json.Unmarshal(body, &ref); err != nil {
					t.Fatalf("json.Unmarshal(%q): %v", body, err)
				}
				sok := ScanSearchRequest(body, &scanned)
				if sok != (req.Query != nil) || sok && !sameRequest(scanned, ref) {
					t.Fatalf("scanned %q: ok %v, %+v; encoding/json read %+v", body, sok, scanned, ref)
				}
			}
		}

		want, werr := json.Marshal(resp)
		got, ok := AppendSearchResponse(nil, &resp)
		switch {
		case ok != (werr == nil):
			t.Fatalf("response: ok %v, wrote %q; json.Marshal: %q, %v", ok, got, want, werr)
		case ok && !bytes.Equal(got, want):
			t.Fatalf("response: wrote\n%q\njson.Marshal writes\n%q", got, want)
		}
		if ok {
			for _, body := range wireForms(want, ws) {
				var ref, scanned SearchResponse
				if err := json.Unmarshal(body, &ref); err != nil {
					t.Fatalf("json.Unmarshal(%q): %v", body, err)
				}
				sok := ScanSearchResponse(body, &scanned)
				if sok != (resp.Results != nil && resp.Partitions != nil) || sok && !sameResponse(scanned, ref) {
					t.Fatalf("scanned %q: ok %v, %+v; encoding/json read %+v", body, sok, scanned, ref)
				}
			}
		}
	})
}

// wireForms returns body, body with json.Encoder's newline, and body
// with whitespace drawn from ws around every structural character.
func wireForms(body, ws []byte) [][]byte {
	spaced := []byte{}
	j := 0
	pad := func() {
		if len(ws) > 0 {
			spaced = append(spaced, " \t\n\r"[ws[j%len(ws)]%4])
			j++
		}
	}
	inString, escape := false, false
	for _, c := range body {
		switch {
		case inString:
			inString = escape || c != '"'
			escape = !escape && c == '\\'
			spaced = append(spaced, c)
		case c == '"':
			inString = true
			spaced = append(spaced, c)
		case strings.IndexByte("{}[]:,", c) >= 0:
			pad()
			spaced = append(spaced, c)
			pad()
		default:
			spaced = append(spaced, c)
		}
	}
	return [][]byte{body, append(slices.Clip(body), '\n'), spaced}
}

func sameFloats(a, b []float32) bool {
	return (a == nil) == (b == nil) && slices.EqualFunc(a, b, func(x, y float32) bool {
		return math.Float32bits(x) == math.Float32bits(y)
	})
}

func sameInts(a, b []int) bool { return (a == nil) == (b == nil) && slices.Equal(a, b) }

func sameRequest(a, b SearchRequest) bool {
	return sameFloats(a.Query, b.Query) && a.K == b.K && a.NProbe == b.NProbe &&
		sameInts(a.Cells, b.Cells) && a.Kernel == b.Kernel
}

func sameResponse(a, b SearchResponse) bool {
	same := (a.Results == nil) == (b.Results == nil) && slices.EqualFunc(a.Results, b.Results, func(x, y SearchNeighbor) bool {
		return x.ID == y.ID && math.Float32bits(x.Distance) == math.Float32bits(y.Distance)
	})
	if (a.Coverage == nil) != (b.Coverage == nil) || a.Coverage != nil && *a.Coverage != *b.Coverage {
		return false
	}
	return same && sameInts(a.Partitions, b.Partitions)
}

// TestWireDeclinesNonCanonical: each body is one encoding/json reads
// (or refuses) by rules the scanners do not carry, so they hand it on
// rather than read it themselves.
func TestWireDeclinesNonCanonical(t *testing.T) {
	requests := []string{
		`{"Query":[1],"k":1}`,
		`{"query":[1],"K":1}`,
		`{"query":[1],"k":1.0}`,
		`{"query":[1],"k":1e2}`,
		`{"query":[1],"cells":[2.5]}`,
		`{"query":[1],"k":9223372036854775808}`,
		`{"query":[1e39],"k":1}`,
		`{"query":null,"k":1}`,
		`{"query":[1],"k":null}`,
		`{"query":[1],"k":1,"k":2}`,
		`{"query":[1],"kernel":"fast\u0070q"}`,
		`{"query":[1],"kernel":"na` + "\xc3\xaf" + `ve"}`,
		`{"query":[1],"backend":"swar"}`,
		`{"query":[01]}`,
		`{"query":[1.]}`,
		`{"query":[+1]}`,
		`{"query":[1],}`,
		`{"query":[1]} {}`,
		"\ufeff" + `{"query":[1]}`,
		"",
	}
	for _, body := range requests {
		var sr SearchRequest
		if ScanSearchRequest([]byte(body), &sr) {
			t.Errorf("request scanner read %q as %+v", body, sr)
		}
	}
	responses := []string{
		`{"Results":[],"partitions":[]}`,
		`{"results":[{"ID":1,"distance":0}],"partitions":[]}`,
		`{"results":[{"id":1.0,"distance":0}],"partitions":[]}`,
		`{"results":[{"id":1,"id":2}],"partitions":[]}`,
		`{"results":null,"partitions":[]}`,
		`{"results":[],"partitions":[],"coverage":null}`,
		`{"results":[],"partitions":[],"coverage":{"Cells_total":1}}`,
		`{"results":[],"partitions":[],"error":"x"}`,
		`{"results":[],"partitions":[],"partitions":[1]}`,
		`{"results":[],"partitions":[],"coverage":{},"coverage":{"cells_total":1}}`,
		`{"results":[],"partitions":[],"coverage":{"cells_total":1,"cells_total":2}}`,
	}
	for _, body := range responses {
		var sr SearchResponse
		if ScanSearchResponse([]byte(body), &sr) {
			t.Errorf("response scanner read %q as %+v", body, sr)
		}
	}
}

// TestWriteSearchResponseIsWriteJSON: the /search reply is WriteJSON's,
// status, header and body, whether or not the codec writes it.
func TestWriteSearchResponseIsWriteJSON(t *testing.T) {
	for _, resp := range []SearchResponse{
		{Results: []SearchNeighbor{{ID: 7, Distance: 1e-7}, {ID: -1, Distance: 2.5}}, Partitions: []int{3, 1}},
		{Results: []SearchNeighbor{}, Partitions: []int{}, Coverage: &Coverage{CellsAnswered: 1, CellsTotal: 2}},
		{Results: []SearchNeighbor{{ID: 1, Distance: float32(math.NaN())}}},
	} {
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		WriteSearchResponse(got, &resp)
		WriteJSON(want, 200, resp)
		if got.Code != want.Code || !slices.Equal(got.Header().Values("Content-Type"), want.Header().Values("Content-Type")) ||
			got.Body.String() != want.Body.String() {
			t.Errorf("%+v: wrote %d %v %q, WriteJSON writes %d %v %q", resp,
				got.Code, got.Header(), got.Body, want.Code, want.Header(), want.Body)
		}
	}
}
