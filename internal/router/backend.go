package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"soi/internal/api"
)

// latWindow tracks a sliding window of recent request latencies per replica;
// its quantiles set the hedging delay (fire a second request once the first
// has been outstanding longer than the replica usually takes).
type latWindow struct {
	mu   sync.Mutex
	ring []time.Duration
	next int
	full bool
}

const latWindowSize = 64

func newLatWindow() *latWindow { return &latWindow{ring: make([]time.Duration, latWindowSize)} }

func (l *latWindow) Observe(d time.Duration) {
	l.mu.Lock()
	l.ring[l.next] = d
	l.next = (l.next + 1) % len(l.ring)
	if l.next == 0 {
		l.full = true
	}
	l.mu.Unlock()
}

// Quantile returns the q-quantile of the window, or 0 with ok=false when
// fewer than 8 observations exist (not enough signal to hedge on).
func (l *latWindow) Quantile(q float64) (time.Duration, bool) {
	l.mu.Lock()
	n := l.next
	if l.full {
		n = len(l.ring)
	}
	if n < 8 {
		l.mu.Unlock()
		return 0, false
	}
	buf := make([]time.Duration, n)
	copy(buf, l.ring[:n])
	l.mu.Unlock()
	sort.Slice(buf, func(a, b int) bool { return buf[a] < buf[b] })
	i := int(q * float64(n-1))
	return buf[i], true
}

// replica is one soid process serving a shard.
type replica struct {
	baseURL string
	shard   int
	breaker *Breaker
	lat     *latWindow
	// healthy is maintained by the prober: the replica answered its last
	// /readyz probe with ready=true and the expected fingerprint. New
	// replicas start healthy (optimistic) so a gateway is usable before the
	// first probe round completes.
	healthy atomic.Bool
	// lastProbeErr is the most recent probe failure, for /v1/topology.
	mu           sync.Mutex
	lastProbeErr string
	// indexFP is the index fingerprint of the last successful probe, part
	// of the gateway's cache keys; guarded by Router.fpMu.
	indexFP string
}

func (rep *replica) setProbeErr(msg string) {
	rep.mu.Lock()
	rep.lastProbeErr = msg
	rep.mu.Unlock()
}

func (rep *replica) probeErr() string {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	return rep.lastProbeErr
}

// probe checks /readyz once: the replica must answer 200 ready=true, and —
// when the topology manifest declares a shard graph fingerprint — report
// that same fingerprint, so a replica serving the wrong shard is quarantined
// instead of silently merged. It returns the index fingerprint the replica
// reported.
func (rep *replica) probe(ctx context.Context, client *http.Client, wantFP string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.baseURL+"/readyz", nil)
	if err != nil {
		return "", err
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var ready api.Ready
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		return "", fmt.Errorf("bad /readyz body: %v", err)
	}
	if !ready.Ready {
		return "", fmt.Errorf("not ready: %s", ready.Reason)
	}
	if wantFP != "" && ready.GraphFingerprint != "" && ready.GraphFingerprint != wantFP {
		return "", fmt.Errorf("fingerprint mismatch: replica serves graph %s, topology wants %s",
			ready.GraphFingerprint, wantFP)
	}
	return ready.IndexFingerprint, nil
}
