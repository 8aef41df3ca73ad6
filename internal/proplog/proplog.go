// Package proplog models user-activity propagation logs — the input from
// which influence probabilities are learnt — and provides a synthetic log
// generator.
//
// The paper learns edge probabilities for Digg/Flixster/Twitter from logs of
// (user, item, timestamp) actions. Those proprietary logs are unavailable,
// so this package substitutes them: pick a ground-truth influence
// probability for every edge, simulate item cascades under the IC model over
// that ground truth, and emit the activations as a log. The learners in
// internal/probs then consume the log exactly as they would a real one —
// with the bonus that the ground truth is known, so learner accuracy is
// testable (see DESIGN.md §3).
package proplog

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"soi/internal/graph"
	"soi/internal/rng"
	"soi/internal/worlds"
)

// Event is one user action: user performed item's action at the given
// discrete time.
type Event struct {
	User graph.NodeID
	Item int32
	Time int32
}

// Log is an immutable propagation log with per-item access.
type Log struct {
	numUsers int
	numItems int
	events   []Event // sorted by (Item, Time, User)
	itemOff  []int32 // CSR offsets into events by item
}

// NewLog builds a Log from events. numUsers bounds the user id space.
// Events are sorted internally; duplicates (same user and item) keep only
// the earliest occurrence, matching the "first activation" semantics of the
// IC model.
func NewLog(numUsers int, events []Event) (*Log, error) {
	maxItem := int32(-1)
	for _, e := range events {
		if e.User < 0 || int(e.User) >= numUsers {
			return nil, fmt.Errorf("proplog: user %d out of range [0,%d)", e.User, numUsers)
		}
		if e.Item < 0 {
			return nil, fmt.Errorf("proplog: negative item %d", e.Item)
		}
		if e.Time < 0 {
			return nil, fmt.Errorf("proplog: negative time %d", e.Time)
		}
		if e.Item > maxItem {
			maxItem = e.Item
		}
	}
	evs := append([]Event(nil), events...)
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Item != evs[j].Item {
			return evs[i].Item < evs[j].Item
		}
		if evs[i].Time != evs[j].Time {
			return evs[i].Time < evs[j].Time
		}
		return evs[i].User < evs[j].User
	})
	// Drop later duplicates of the same (item, user).
	dedup := evs[:0]
	var seen map[graph.NodeID]bool
	lastItem := int32(-1)
	for _, e := range evs {
		if e.Item != lastItem {
			seen = make(map[graph.NodeID]bool)
			lastItem = e.Item
		}
		if seen[e.User] {
			continue
		}
		seen[e.User] = true
		dedup = append(dedup, e)
	}
	evs = dedup

	l := &Log{numUsers: numUsers, numItems: int(maxItem + 1), events: evs}
	l.itemOff = make([]int32, l.numItems+1)
	for _, e := range evs {
		l.itemOff[e.Item+1]++
	}
	for i := 1; i <= l.numItems; i++ {
		l.itemOff[i] += l.itemOff[i-1]
	}
	return l, nil
}

// NumUsers returns the size of the user id space.
func (l *Log) NumUsers() int { return l.numUsers }

// NumItems returns the number of distinct items (actions).
func (l *Log) NumItems() int { return l.numItems }

// NumEvents returns the total number of (deduplicated) events.
func (l *Log) NumEvents() int { return len(l.events) }

// ItemEvents returns the events of one item, sorted by time. The slice
// aliases internal storage.
func (l *Log) ItemEvents(item int32) []Event {
	return l.events[l.itemOff[item]:l.itemOff[item+1]]
}

// GenerateConfig controls synthetic log generation.
type GenerateConfig struct {
	// Items is the number of independent item cascades to simulate.
	Items int
	// SeedsPerItem is how many initial adopters each item starts with.
	SeedsPerItem int
	// Seed drives the deterministic simulation.
	Seed uint64
}

// Generate simulates cfg.Items IC cascades over the ground-truth graph g
// and returns them as a propagation log. Items whose cascade never leaves
// the seeds still appear in the log (a real log has mostly-dead items too).
func Generate(g *graph.Graph, cfg GenerateConfig) (*Log, error) {
	if cfg.Items < 1 {
		return nil, fmt.Errorf("proplog: Items must be >= 1, got %d", cfg.Items)
	}
	if cfg.SeedsPerItem < 1 {
		return nil, fmt.Errorf("proplog: SeedsPerItem must be >= 1, got %d", cfg.SeedsPerItem)
	}
	if cfg.SeedsPerItem > g.NumNodes() {
		return nil, fmt.Errorf("proplog: SeedsPerItem %d exceeds node count %d", cfg.SeedsPerItem, g.NumNodes())
	}
	master := rng.New(cfg.Seed)
	smp := worlds.NewSampler(g, worlds.IC)
	var nodes []graph.NodeID
	steps := []int32{} // non-nil: Forward records steps
	var events []Event
	for item := 0; item < cfg.Items; item++ {
		r := master.Split(uint64(item))
		seeds := make([]graph.NodeID, 0, cfg.SeedsPerItem)
		chosen := make(map[graph.NodeID]bool, cfg.SeedsPerItem)
		for len(seeds) < cfg.SeedsPerItem {
			v := graph.NodeID(r.Intn(g.NumNodes()))
			if !chosen[v] {
				chosen[v] = true
				seeds = append(seeds, v)
			}
		}
		nodes, steps = smp.Forward(seeds, r, nodes[:0], steps[:0], nil)
		for i, v := range nodes {
			events = append(events, Event{User: v, Item: int32(item), Time: steps[i]})
		}
	}
	return NewLog(g.NumNodes(), events)
}

// WriteTSV writes the log as "user item time" lines.
func (l *Log) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# users=%d items=%d events=%d\n", l.numUsers, l.numItems, len(l.events)); err != nil {
		return err
	}
	for _, e := range l.events {
		if _, err := fmt.Fprintf(bw, "%d\t%d\t%d\n", e.User, e.Item, e.Time); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTSV parses a log written by WriteTSV (or any "user item time" file).
func ReadTSV(r io.Reader, numUsers int) (*Log, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var events []Event
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("proplog: line %d: want 3 fields, got %d", lineNo, len(fields))
		}
		user, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("proplog: line %d: bad user: %v", lineNo, err)
		}
		item, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("proplog: line %d: bad item: %v", lineNo, err)
		}
		tm, err := strconv.ParseInt(fields[2], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("proplog: line %d: bad time: %v", lineNo, err)
		}
		events = append(events, Event{User: graph.NodeID(user), Item: int32(item), Time: int32(tm)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return NewLog(numUsers, events)
}
