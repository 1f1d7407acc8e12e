package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// Span names. Spans are recorded by the benchmark around calls into each
// layer's public functions; nothing inside the program is instrumented.
const (
	spSearch     uint8 = iota // pqfastscan.Index.Search
	spAdd                     // pqfastscan.Index.Add
	spDelete                  // pqfastscan.Index.Delete
	spComposed                // one query answered by the stages below, from outside
	spRank                    // index.Index.RankCellsInto
	spLUT                     // index.Index.Tables
	spFastScan                // scan.FastScan.ScanNativeBackend
	spPQScan                  // scan.ExactNative
	spMerge                   // topk.Heap pushes and Results / topk.MergeResults
	spHTTPPost                // one client POST and its reply
	spHandler                 // server.Server.Handler().ServeHTTP
	spHandlerNow              // the same on a twin server with BatchWindow -1
	spRouterCall              // cluster.Router.Search
	spRouterHTTP              // cluster.Router.Handler().ServeHTTP
	spDecode                  // json.Unmarshal of a server.SearchRequest
	spEncode                  // json.Marshal of a server.SearchResponse
	spWALAppend               // wal.Log.AppendAdd / AppendDelete
)

var spanNames = [...]string{
	spSearch: "pqfastscan.Search", spAdd: "pqfastscan.Add", spDelete: "pqfastscan.Delete",
	spComposed: "composed", spRank: "index.RankCellsInto", spLUT: "index.Tables",
	spFastScan: "scan.ScanNativeBackend", spPQScan: "scan.ExactNative", spMerge: "topk.merge",
	spHTTPPost: "http.post", spHandler: "server.ServeHTTP", spHandlerNow: "server.ServeHTTP.nowindow",
	spRouterCall: "cluster.Search", spRouterHTTP: "cluster.ServeHTTP",
	spDecode: "json.Unmarshal", spEncode: "json.Marshal", spWALAppend: "wal.Append",
}

// span is one timed call. parent is the index of the enclosing span in
// the same client's buffer (-1 for none); spans of one query share qid,
// and key is the pool entry the query came from (-1 for none).
type span struct {
	name       uint8
	parent     int32
	qid        int32
	key        int32
	start, end time.Duration // since the tracer was made
	codes      int64         // scan spans: codes in the partition scanned
	bytes      int64         // scan spans: bytes of the layout scanned
}

// tracer keeps spans in memory, one buffer per client so recording takes
// no lock, and writes them out when the run ends.
type tracer struct {
	epoch time.Time
	bufs  [][]span
}

func newTracer(clients int) *tracer {
	t := &tracer{epoch: time.Now(), bufs: make([][]span, clients)}
	for c := range t.bufs {
		t.bufs[c] = make([]span, 0, 1<<16)
	}
	return t
}

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(c int, name uint8, parent int32, qid int, key int32) int32 {
	t.bufs[c] = append(t.bufs[c], span{name: name, parent: parent, qid: int32(qid), key: key, start: time.Since(t.epoch)})
	return int32(len(t.bufs[c]) - 1)
}

func (t *tracer) end(c int, i int32) { t.bufs[c][i].end = time.Since(t.epoch) }

// perQuery sums, for every query that ended inside ph, the spans of the
// given name, and returns one sample per query. val picks what is summed.
func (t *tracer) perQuery(ph *phase, name uint8, val func(span) float64) []sample {
	off := ph.start.Sub(t.epoch)
	var out []sample
	for _, buf := range t.bufs {
		var sum float64
		var last span
		have := false
		flush := func() {
			if have && ph.holds(last.end-off) {
				out = append(out, sample{at: last.end - off, v: sum, done: done{kind: name, key: last.key}})
			}
			sum, have = 0, false
		}
		for _, s := range buf {
			if s.name != name {
				continue
			}
			if have && s.qid != last.qid {
				flush()
			}
			sum += val(s)
			last, have = s, true
		}
		flush()
	}
	return out
}

func spanNs(s span) float64 { return float64(s.end - s.start) }

// stageUs is the time of one span name per query in ph, by the slice rule.
func (t *tracer) stageUs(ph *phase, name uint8) stat {
	return ph.settledUs(t.perQuery(ph, name, spanNs))
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for c, buf := range t.bufs {
		for i, s := range buf {
			rec := map[string]any{
				"client": c, "id": i, "parent": s.parent, "qid": s.qid, "key": s.key,
				"name": spanNames[s.name], "start_ns": int64(s.start), "end_ns": int64(s.end),
			}
			if s.codes != 0 {
				rec["codes"], rec["bytes"] = s.codes, s.bytes
			}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
