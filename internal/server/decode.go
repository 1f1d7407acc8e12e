// The request contract of /search, /add, /delete and the admin bodies
// (/swap, /swap/prepare, /save, /compact), shared by pqserve and
// pqrouter (internal/cluster): pure functions from a body, a raw URL
// query and the index geometry to a checked request, or to an error the
// caller answers with 400. What a query must satisfy against an index is
// index.CheckRequest's; what is decided here is only the HTTP half — one
// strict JSON object, ?recall=, k's default and cap, the kernel name —
// and the deadline header.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"pqfastscan"
	"pqfastscan/internal/index"
)

// DeadlineHeader carries a request's remaining deadline budget as a
// relative millisecond count. Relative, not an absolute timestamp, so
// clock skew between router and shard cannot corrupt it: each hop
// reads the remainder of its own context deadline and forwards that.
// A shard receiving an expired or non-positive budget answers 504
// before doing any scan work.
const DeadlineHeader = "X-Pq-Deadline-Ms"

// searchCeiling bounds a /search that forwards no tighter budget of its
// own: no request occupies a token, a core or a fan-out for longer.
const searchCeiling = 30 * time.Second

// DeadlineContext puts r under its DeadlineHeader budget, capped by a
// 30 s ceiling (the ceiling alone when the header is missing). A
// malformed or spent budget is an error the caller answers with 504,
// before any other work.
func DeadlineContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	budget := searchCeiling
	if v := r.Header.Get(DeadlineHeader); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("bad %s header %q", DeadlineHeader, v)
		}
		if ms <= 0 {
			return nil, nil, fmt.Errorf("deadline already expired (%s: %d)", DeadlineHeader, ms)
		}
		if ms < searchCeiling.Milliseconds() {
			budget = time.Duration(ms) * time.Millisecond
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), budget)
	return ctx, cancel, nil
}

// DecodeSearch turns a /search body and raw URL query into a request
// index.CheckRequest accepts for an index of dim and partitions: the
// body is one SearchRequest with no other key ("backend" included), k
// defaults to 10 and may not exceed maxK, a kernel is one of naive,
// libpq, fastpq, and ?recall=r sets a coverage target.
func DecodeSearch(body io.Reader, rawQuery string, dim, partitions, maxK int) (index.Request, error) {
	var sr SearchRequest
	if err := decodeOne(body, &sr); err != nil {
		return index.Request{}, err
	}
	req := index.Request{Query: sr.Query, K: sr.K, NProbe: sr.NProbe, Cells: sr.Cells}
	if req.K == 0 {
		req.K = 10
	}
	if req.K > maxK {
		return index.Request{}, fmt.Errorf("k must be in [1,%d]", maxK)
	}
	if sr.Kernel != "" {
		k, err := pqfastscan.ParseKernel(sr.Kernel)
		if err != nil {
			return index.Request{}, err
		}
		req.Kernel = k
	}
	// Most requests carry no URL query; parsing one costs a map.
	if rawQuery != "" {
		q, _ := url.ParseQuery(rawQuery) // what parses, as http.Request.URL.Query
		if v := q.Get("recall"); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			// 0 is the Request's "no target", which ?recall= cannot spell;
			// the rest of the range is CheckRequest's.
			if err != nil || f == 0 {
				return index.Request{}, fmt.Errorf("recall must be a number in (0,1], got %q", v)
			}
			req.Recall = f
		}
	}
	if err := index.CheckRequest(req, dim, partitions); err != nil {
		return index.Request{}, err
	}
	return req, nil
}

// DecodeAdd turns an /add body into a request holding at least one
// vector, every one of which index.CheckVector accepts for dim.
func DecodeAdd(body io.Reader, dim int) (AddRequest, error) {
	var req AddRequest
	if err := decodeOne(body, &req); err != nil {
		return AddRequest{}, err
	}
	if len(req.Vectors) == 0 {
		return AddRequest{}, errors.New("vectors must be non-empty")
	}
	for i, v := range req.Vectors {
		if err := index.CheckVector(v, dim); err != nil {
			return AddRequest{}, fmt.Errorf("vector %d: %w", i, err)
		}
	}
	return req, nil
}

// DecodeDelete turns a /delete body into a request. The id is required:
// build-time ids start at 0, so a body without one must not read as 0.
func DecodeDelete(body io.Reader) (DeleteRequest, error) {
	var req struct {
		ID *int64 `json:"id"`
	}
	if err := decodeOne(body, &req); err != nil {
		return DeleteRequest{}, err
	}
	if req.ID == nil {
		return DeleteRequest{}, errors.New(`bad JSON: "id" is required`)
	}
	return DeleteRequest{ID: *req.ID}, nil
}

// DecodeSwap turns a /swap or /swap/prepare body into a request naming
// a non-blank path. There is no default: an empty body is an error.
func DecodeSwap(body io.Reader) (SwapRequest, error) {
	var req SwapRequest
	if err := decodeOne(body, &req); err != nil {
		return SwapRequest{}, err
	}
	if strings.TrimSpace(req.Path) == "" {
		return SwapRequest{}, errors.New("path must be non-empty")
	}
	return req, nil
}

// DecodeSave turns a /save body into a request; an empty body is the
// zero request, which saves to the configured path (a checkpoint on a
// durable server).
func DecodeSave(body io.Reader) (SaveRequest, error) {
	var req SaveRequest
	if err := decodeOptional(body, &req); err != nil {
		return SaveRequest{}, err
	}
	return req, nil
}

// DecodeCompact turns a /compact body into a request for an index of
// the given partition count; an empty body, like an absent partition,
// selects the policy sweep (Partition -1). A threshold is a dead ratio,
// in [0, 1], and only the policy sweep reads one: a non-zero threshold
// beside an explicit partition is refused, not ignored.
func DecodeCompact(body io.Reader, partitions int) (CompactRequest, error) {
	req := CompactRequest{Partition: -1}
	if err := decodeOptional(body, &req); err != nil {
		return CompactRequest{}, err
	}
	if req.Partition >= partitions {
		return CompactRequest{}, fmt.Errorf("partition must be in [0,%d) or negative for policy mode", partitions)
	}
	if req.Threshold < 0 || req.Threshold > 1 {
		return CompactRequest{}, fmt.Errorf("threshold %g is not a dead ratio in [0,1]", req.Threshold)
	}
	if req.Partition >= 0 && req.Threshold != 0 {
		return CompactRequest{}, fmt.Errorf("threshold applies to the policy sweep only, not to partition %d", req.Partition)
	}
	return req, nil
}

// decodeOptional is decodeOne for a body that may hold no JSON value at
// all, which leaves v as it is.
func decodeOptional(body io.Reader, v any) error {
	if err := decodeOne(body, v); err != nil && !errors.Is(err, io.EOF) {
		return err
	}
	return nil
}

// decodeOne decodes body into v as exactly one JSON value: a key v has
// no field for is an error, and so is anything after the value but
// whitespace (json.Encoder ends what it writes with a newline).
func decodeOne(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad JSON: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("bad JSON: data after the first value")
	}
	return nil
}
