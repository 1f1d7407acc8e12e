package server

import (
	"bytes"
	"strings"
	"testing"

	"pqfastscan/internal/index"
)

// The decoders' fuzz geometry: a small dimension keeps the bodies short
// enough for the fuzzer's mutations to reach their structure.
const (
	fuzzDim        = 16
	fuzzPartitions = 4
	fuzzMaxK       = 1000
)

func fuzzVector() []float32 {
	v := make([]float32, fuzzDim)
	for i := range v {
		v[i] = float32(i) * 0.5
	}
	return v
}

// FuzzDecodeSearch: on any body and URL query DecodeSearch never panics,
// and what it accepts is a request index.CheckRequest accepts, with a
// query of the index's dimension and k within the cap. Seeds are the
// validation tables' refusals and a few valid requests.
func FuzzDecodeSearch(f *testing.F) {
	q := fuzzVector()
	for _, c := range append(searchRefusals(q), cellsRefusals(q)...) {
		f.Add(c.body, "")
	}
	f.Add(mustJSON(SearchRequest{Query: q, K: 5, NProbe: 2}), "")
	f.Add(mustJSON(SearchRequest{Query: q, Cells: []int{3, 1}, Kernel: "naive"}), "")
	f.Add(mustJSON(SearchRequest{Query: q, K: 5}), "recall=0.5")
	f.Add(mustJSON(SearchRequest{Query: q, K: 5}), "recall=1.5&partial=1")
	f.Fuzz(func(t *testing.T, body []byte, rawQuery string) {
		req, err := DecodeSearch(bytes.NewReader(body), rawQuery, fuzzDim, fuzzPartitions, fuzzMaxK)
		if err != nil {
			return
		}
		if err := index.CheckRequest(req, fuzzDim, fuzzPartitions); err != nil {
			t.Fatalf("accepted %q ?%s, which the index check refuses: %v", body, rawQuery, err)
		}
		if len(req.Query) != fuzzDim || req.K > fuzzMaxK {
			t.Fatalf("accepted %q ?%s as query dim %d, k %d", body, rawQuery, len(req.Query), req.K)
		}
	})
}

// FuzzDecodeAdd: on any body DecodeAdd never panics, and what it accepts
// holds at least one vector, each of the index's dimension and accepted
// by index.CheckVector.
func FuzzDecodeAdd(f *testing.F) {
	good := fuzzVector()
	for _, c := range addRefusals(good) {
		f.Add(c.body)
	}
	f.Add(mustJSON(AddRequest{Vectors: [][]float32{good, good}}))
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := DecodeAdd(bytes.NewReader(body), fuzzDim)
		if err != nil {
			return
		}
		if len(req.Vectors) == 0 {
			t.Fatalf("accepted %q with no vectors", body)
		}
		for i, v := range req.Vectors {
			if err := index.CheckVector(v, fuzzDim); err != nil {
				t.Fatalf("accepted %q, whose vector %d the index refuses: %v", body, i, err)
			}
		}
	})
}

// FuzzDecodeAdmin: on any body DecodeSwap, DecodeSave and DecodeCompact
// never panic, and what each accepts is a valid request — a swap names
// a non-blank path, a compaction a partition below the index's count
// and a threshold in [0, 1], non-zero only in the policy sweep — that
// decodes to itself again once re-encoded.
func FuzzDecodeAdmin(f *testing.F) {
	for _, cases := range adminRefusals("/x/next.idx") {
		for _, c := range cases {
			f.Add(c.body)
		}
	}
	f.Add(mustJSON(SwapRequest{Path: "/x/next.idx"}))
	f.Add(mustJSON(CompactRequest{Partition: -1, Threshold: 0.5}))
	f.Add(mustJSON(CompactRequest{Partition: 2}))
	f.Add([]byte(" \n"))
	f.Fuzz(func(t *testing.T, body []byte) {
		if req, err := DecodeSwap(bytes.NewReader(body)); err == nil {
			again, err := DecodeSwap(bytes.NewReader(mustJSON(req)))
			if strings.TrimSpace(req.Path) == "" || err != nil || again != req {
				t.Fatalf("swap %q: accepted %+v, which decodes again to %+v, %v", body, req, again, err)
			}
		}
		if req, err := DecodeSave(bytes.NewReader(body)); err == nil {
			if again, err := DecodeSave(bytes.NewReader(mustJSON(req))); err != nil || again != req {
				t.Fatalf("save %q: accepted %+v, which decodes again to %+v, %v", body, req, again, err)
			}
		}
		if req, err := DecodeCompact(bytes.NewReader(body), fuzzPartitions); err == nil {
			again, err := DecodeCompact(bytes.NewReader(mustJSON(req)), fuzzPartitions)
			valid := req.Partition < fuzzPartitions && req.Threshold >= 0 && req.Threshold <= 1 &&
				(req.Partition < 0 || req.Threshold == 0)
			if !valid || err != nil || again != req {
				t.Fatalf("compact %q: accepted %+v, which decodes again to %+v, %v", body, req, again, err)
			}
		}
	})
}
