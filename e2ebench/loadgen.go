package main

import (
	"io"
	"net/http"
	"sync"
	"time"
)

// reply is the client-side record of one request.
type reply struct {
	status  int
	body    []byte
	err     error
	latency time.Duration // scheduled send time to last body byte
	late    time.Duration // how late the generator dispatched it
	traceID string        // X-SOI-Request-ID, when the daemons trace
}

// newClient returns the generator's HTTP client: at most conns keep-alive
// connections to the gateway, no proxy, no transparent compression.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
		Timeout: 30 * time.Second,
	}
}

// sendOpenLoop sends reqs against base on their schedule, regardless of how
// fast replies come back: a dispatcher releases each request when it is due
// and conns workers, each holding one connection, send them. A request that
// waits for a free connection keeps its original due time, so that wait
// counts in its latency, as a stall in the system would impose it on later
// arrivals. It returns once every reply is in.
func sendOpenLoop(client *http.Client, base string, reqs []request, conns int) []reply {
	out := make([]reply, len(reqs))
	jobs := make(chan int, len(reqs)) // room for every request: the dispatcher never blocks
	var wg sync.WaitGroup
	start := time.Now().Add(20 * time.Millisecond)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				due := start.Add(reqs[i].Due)
				r := &out[i]
				resp, err := client.Get(base + reqs[i].path())
				if err != nil {
					r.err = err
					r.latency = time.Since(due)
					continue
				}
				r.body, r.err = io.ReadAll(resp.Body)
				resp.Body.Close()
				r.latency = time.Since(due)
				r.status = resp.StatusCode
				r.traceID = resp.Header.Get("X-SOI-Request-ID")
			}
		}()
	}
	for i := range reqs {
		due := start.Add(reqs[i].Due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		out[i].late = time.Since(due)
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}
