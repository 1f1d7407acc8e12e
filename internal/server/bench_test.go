package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"pqfastscan"
)

// BenchmarkServeCallers is the serving path under 2 and under 16
// closed-loop HTTP callers (k=100, nprobe=1, pre-marshalled bodies,
// loopback listener in this process): the standing number for the case
// the core gate exists for — more callers than cores — beside the
// 2-caller case BENCHMARK.json gates as serve_search. ns/op is wall time
// per completed request across all callers; p50_us is the client-observed
// median; queue_wait_p99_us is the server's own p99 wait for a core.
func BenchmarkServeCallers(b *testing.B) {
	gen := pqfastscan.NewSyntheticDataset(pqfastscan.DatasetConfig{Seed: 5})
	opt := pqfastscan.DefaultBuildOptions()
	opt.Partitions = 4
	idx, err := pqfastscan.Build(gen.Generate(5000), gen.Generate(100000), opt)
	if err != nil {
		b.Fatal(err)
	}
	queries := gen.Generate(256)
	bodies := make([][]byte, queries.Rows())
	for i := range bodies {
		if bodies[i], err = json.Marshal(SearchRequest{Query: queries.Row(i), K: 100}); err != nil {
			b.Fatal(err)
		}
	}

	for _, callers := range []int{2, 16} {
		b.Run(fmt.Sprint(callers), func(b *testing.B) {
			s, err := New(Config{Index: idx, MaxInFlight: 4 * callers})
			if err != nil {
				b.Fatal(err)
			}
			hs := httptest.NewServer(s.Handler())
			defer func() { hs.Close(); s.Close() }()
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: callers}}
			defer client.CloseIdleConnections()
			post := func(body []byte) error {
				resp, err := client.Post(hs.URL+"/search", "application/json", bytes.NewReader(body))
				if err != nil {
					return err
				}
				defer resp.Body.Close()
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					return err
				}
				if resp.StatusCode != http.StatusOK {
					return fmt.Errorf("status %d", resp.StatusCode)
				}
				return nil
			}
			for i := 0; i < 4*callers; i++ { // connections up, scanners built
				if err := post(bodies[i%len(bodies)]); err != nil {
					b.Fatal(err)
				}
			}

			lat := make([][]time.Duration, callers)
			var wg sync.WaitGroup
			b.ResetTimer()
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := c; i < b.N; i += callers {
						t0 := time.Now()
						if err := post(bodies[i%len(bodies)]); err != nil {
							b.Error(err)
							return
						}
						lat[c] = append(lat[c], time.Since(t0))
					}
				}(c)
			}
			wg.Wait()
			b.StopTimer()

			b.ReportMetric(s.StatsSnapshot().Batch.QueueWaitUs.P99, "queue_wait_p99_us")
			if all := slices.Concat(lat...); len(all) > 0 {
				slices.Sort(all)
				b.ReportMetric(float64(all[len(all)/2])/1e3, "p50_us")
			}
		})
	}
}
