package api

import (
	"net/url"
	"strconv"
	"strings"
	"time"
)

// IDs parses query parameter param as a comma-separated list of original
// node ids. Mapping the ids (to dense ids on soid, to owning shards on soigw)
// is the caller's.
func IDs(q url.Values, param string) ([]int64, error) {
	raw := q.Get(param)
	if raw == "" {
		return nil, BadRequest("missing %s parameter (comma-separated node ids)", param)
	}
	parts := strings.Split(raw, ",")
	out := make([]int64, len(parts))
	for i, p := range parts {
		id, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, BadRequest("bad %s entry %q", param, p)
		}
		out[i] = id
	}
	return out, nil
}

// Node parses a path {node} segment as an original node id.
func Node(raw string) (int64, error) {
	id, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, BadRequest("bad node %q", raw)
	}
	return id, nil
}

// Threshold parses the reliability threshold: 0.5 when absent, and
// otherwise a finite probability in (0, 1].
func Threshold(q url.Values) (float64, error) {
	raw := q.Get("threshold")
	if raw == "" {
		return 0.5, nil
	}
	t, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, BadRequest("bad threshold %q", raw)
	}
	if !(t > 0 && t <= 1) { // also rejects NaN and ±Inf
		return 0, BadRequest("threshold must be in (0, 1], got %q", raw)
	}
	return t, nil
}

// Budget parses the budget parameter (a Go duration): def when absent, and
// otherwise a positive duration capped at max.
func Budget(q url.Values, def, max time.Duration) (time.Duration, error) {
	raw := q.Get("budget")
	if raw == "" {
		return def, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return 0, BadRequest("bad budget %q: %v", raw, err)
	}
	if d <= 0 {
		return 0, BadRequest("budget must be positive, got %q", raw)
	}
	return min(d, max), nil
}
