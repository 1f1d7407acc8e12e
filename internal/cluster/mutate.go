// Mutation forwarding: /add and /delete routed through the cluster
// with retry-safety semantics. Searches are idempotent reads, so the
// fanout retries them freely; mutations are not, so the rules here are
// strict: a mutation goes to the owning shard's primary only (replicas
// would silently diverge), and it is retried only after failures that
// prove the request never reached the server (dial-class errors).
// Anything else — a connection reset mid-response, an EOF, a timeout —
// is ambiguous: the shard may or may not have applied the write, and
// re-sending would risk applying it twice. Those failures surface as a
// typed AmbiguousError ("outcome unknown") instead of being retried.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"

	"pqfastscan/internal/index"
	"pqfastscan/internal/server"
)

// AmbiguousError reports a mutation whose outcome is unknown: the
// request may have reached the shard and been applied before the
// failure, so the router refuses to retry it. Callers must reconcile
// (re-read, or use an idempotency key at a higher layer) rather than
// blindly re-send.
type AmbiguousError struct {
	Endpoint string
	Err      error
}

func (e *AmbiguousError) Error() string {
	return fmt.Sprintf("cluster: outcome unknown: mutation to %s failed after it may have been received, not retrying: %v", e.Endpoint, e.Err)
}

func (e *AmbiguousError) Unwrap() error { return e.Err }

// ambiguousOutcome classifies a transport failure: false means the
// request provably never reached the server (safe to re-send), true
// means it may have (never re-send). Dial-class failures — connection
// refused, no route, DNS — happen before a byte of the request is
// written. An HTTP status error is also unambiguous: the server
// answered, and the mutation handlers only acknowledge after applying,
// so an error status means not applied. Everything else (reset
// mid-response, unexpected EOF, timeout in flight) is ambiguous.
func ambiguousOutcome(err error) bool {
	var op *net.OpError
	if errors.As(err, &op) && op.Op == "dial" {
		return false
	}
	var he *httpStatusError
	return !errors.As(err, &he)
}

// forwardMutation posts one mutation to a shard primary under the
// retry-safety rules: up to maxAttempts tries, but only while every
// failure so far was provably-never-sent; the first ambiguous failure
// stops everything and is returned typed.
func (r *Router) forwardMutation(ctx context.Context, ep, path string, body, out any) error {
	maxAttempts := r.cfg.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 3
	}
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			r.metrics.retries.Add(1)
			if !r.cfg.sleep(ctx, r.retryDelay(attempt)) {
				break
			}
		}
		err := r.postJSON(ctx, ep+path, body, out)
		if err == nil {
			return nil
		}
		var he *httpStatusError
		if errors.As(err, &he) {
			// The server answered with an error status: a definite
			// outcome (mutation handlers acknowledge only after
			// applying), so there is nothing to retry.
			return err
		}
		if ambiguousOutcome(err) {
			r.metrics.ambiguous.Add(1)
			return &AmbiguousError{Endpoint: ep, Err: err}
		}
		lastErr = err
	}
	return fmt.Errorf("cluster: mutation to %s failed (never reached server): %w", ep, lastErr)
}

// ErrAddNeedsOneShard refuses an Add through a fleet of more than one
// shard. Every shard allocates ids from its own copy of the allocator,
// so two shards issue the same ids: a /delete of one of them then
// removes two vectors, and the merge collapses both into one result.
// Until shards share one allocator, a fleet takes new vectors through a
// 1-shard router only; pqrouter answers this error with 501.
var ErrAddNeedsOneShard = errors.New("cluster: add through a router of more than one shard is not implemented: each shard allocates ids on its own, so two shards would issue the same ids")

// Add sends vectors to the fleet's one shard and returns the assigned
// ids in input order; the shard's primary routes each vector to its
// nearest cell, as the engine does. A fleet of more than one shard
// refuses every Add with ErrAddNeedsOneShard, before any sub-request —
// but after the vectors are checked, so a vector a node would refuse
// still fails the call as that node would. An ambiguous failure returns
// an AmbiguousError.
func (r *Router) Add(ctx context.Context, vectors [][]float32) ([]int64, error) {
	meta := r.meta.Load()
	for i, v := range vectors {
		if err := index.CheckVector(v, meta.dim); err != nil {
			return nil, fmt.Errorf("cluster: vector %d: %w", i, err)
		}
	}
	if len(r.shards) > 1 {
		return nil, ErrAddNeedsOneShard
	}
	var out server.AddResponse
	if err := r.forwardMutation(ctx, r.shards[0].spec.Endpoints[0], "/add", server.AddRequest{Vectors: vectors}, &out); err != nil {
		return nil, fmt.Errorf("shard 0: %w", err)
	}
	if len(out.IDs) != len(vectors) {
		return nil, fmt.Errorf("cluster: shard 0 returned %d ids for %d vectors", len(out.IDs), len(vectors))
	}
	return out.IDs, nil
}

// Delete removes id from the fleet. The router does not know which
// shard holds an id, so the delete is sent to every shard primary;
// at least one reporting deleted=true means success, every shard
// answering 404 means the id does not exist anywhere. Ambiguous
// transport failures abort with a typed AmbiguousError, never a
// re-send.
func (r *Router) Delete(ctx context.Context, id int64) (bool, error) {
	deleted := false
	for si, sh := range r.shards {
		primary := sh.spec.Endpoints[0]
		var out server.DeleteResponse
		err := r.forwardMutation(ctx, primary, "/delete", server.DeleteRequest{ID: id}, &out)
		if err != nil {
			var he *httpStatusError
			if errors.As(err, &he) && he.status == 404 {
				continue // this shard does not hold the id
			}
			return deleted, fmt.Errorf("shard %d: %w", si, err)
		}
		if out.Deleted {
			deleted = true
		}
	}
	return deleted, nil
}
