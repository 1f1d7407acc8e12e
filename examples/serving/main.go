// Serving: run the pqfastscan query service in-process (the same
// internal/server engine the pqserve binary deploys) and talk to it the
// way a production client would — JSON over HTTP: add vectors online,
// search, and read the service metrics. In a real deployment the server
// side of this program is just `pqserve -addr :8080 -index sift.idx`.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	"pqfastscan"
	"pqfastscan/internal/server"
)

func main() {
	// --- Server side: build a small index and serve it ----------------
	gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 7})
	learn := gen.Generate(5000)
	base := gen.Generate(50000)

	start := time.Now()
	idx, err := pqfastscan.Build(learn, base, pqfastscan.DefaultBuildOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d vectors in %v\n", base.Rows(), time.Since(start).Round(time.Millisecond))

	srv, err := server.New(server.Config{Index: idx})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()
	url := "http://" + ln.Addr().String()
	fmt.Printf("serving on %s\n\n", url)

	// --- Client side: plain HTTP from here on --------------------------

	// Health check.
	var health struct {
		Status string `json:"status"`
		Live   int    `json:"live"`
	}
	mustGet(url+"/healthz", &health)
	fmt.Printf("healthz: %s, %d live vectors\n", health.Status, health.Live)

	// Add two fresh vectors online; the service returns their ids.
	newVecs := gen.Generate(2)
	var added server.AddResponse
	mustPost(url+"/add", server.AddRequest{
		Vectors: [][]float32{newVecs.Row(0), newVecs.Row(1)},
	}, &added)
	fmt.Printf("added 2 vectors over HTTP, ids %v\n", added.IDs)

	// Search for one of them: it must come back as its own nearest
	// neighbor, served straight from the live index.
	var found server.SearchResponse
	mustPost(url+"/search", server.SearchRequest{
		Query: newVecs.Row(0), K: 3, NProbe: 4,
	}, &found)
	fmt.Printf("top-3 for the vector just added (expect id %d first):\n", added.IDs[0])
	for rank, r := range found.Results {
		fmt.Printf("  #%d id=%d distance=%.1f\n", rank+1, r.ID, r.Distance)
	}

	// A few ordinary queries.
	queries := gen.Generate(3)
	for qi := 0; qi < queries.Rows(); qi++ {
		var resp server.SearchResponse
		t0 := time.Now()
		mustPost(url+"/search", server.SearchRequest{Query: queries.Row(qi), K: 5}, &resp)
		fmt.Printf("query %d: top-5 over HTTP in %v (best id=%d)\n",
			qi, time.Since(t0).Round(time.Microsecond), resp.Results[0].ID)
	}

	// The service exports its own observability.
	var stats server.Stats
	mustGet(url+"/stats", &stats)
	search := stats.Endpoints["/search"]
	fmt.Printf("\n/stats: %d searches served, p50 %.2fms p99 %.2fms; waited for a core p99 %.0fus; %d shed\n",
		search.Requests, search.P50Ms, search.P99Ms,
		stats.Batch.QueueWaitUs.P99, stats.Admission.Shed)
}

func mustPost(url string, body, out any) {
	raw, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	decode(url, resp, out)
}

func mustGet(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	decode(url, resp, out)
}

func decode(url string, resp *http.Response, out any) {
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("%s: HTTP %d: %s", url, resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, out); err != nil {
		log.Fatalf("%s: %v", url, err)
	}
}
