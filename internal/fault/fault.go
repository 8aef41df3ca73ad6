// Package fault is a failpoint registry for crash-consistency and
// fault-injection testing. Production code calls Hit(site) at named
// instrumentation sites (file writes, checkpoint flushes, pool tasks); when a
// failpoint is armed at that site it deterministically injects an error, a
// delay, a panic, or a simulated process kill. When nothing is armed — the
// only state reachable without an explicit opt-in — Hit is a single atomic
// load and returns nil, so instrumented hot paths pay nothing measurable.
//
// Arming is gated twice, because a failpoint in a production binary is a
// footgun:
//
//  1. Tests call Enable/Disable/Reset directly after calling SetActive(true)
//     (typically in the test and deferred back off).
//
//  2. Integration tests of whole binaries set the SOI_FAILPOINTS environment
//     variable, an allowlist of site specs parsed at process start, e.g.
//
//     SOI_FAILPOINTS="atomicfile/rename=kill;checkpoint/flush=error:after=2"
//
//     A running process cannot be re-armed from outside: a cross-process
//     harness restarts the binary with the spec it needs.
//
// Without either, Enable returns an error and every site stays disarmed.
//
// Triggers are deterministic: a failpoint fires on its After+1-th hit and at
// most Times times (0 = unlimited), with hits counted atomically per site, so
// a test can kill exactly the second checkpoint flush and nothing else.
package fault

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Instrumented site names. Defining them here keeps the namespace flat and
// typo-proof; the instrumented packages reference these constants.
const (
	// AtomicWrite fires inside atomicfile.WriteFile after the payload is
	// written to the temporary file but before it is synced.
	AtomicWrite = "atomicfile/write"
	// AtomicSync fires after the temporary file is synced but before close.
	AtomicSync = "atomicfile/sync"
	// AtomicRename fires immediately before the rename over the target: a
	// kill here leaves a complete temporary file and an untouched target.
	AtomicRename = "atomicfile/rename"
	// AtomicDirSync fires after the rename, before the parent directory
	// fsync that makes the rename durable.
	AtomicDirSync = "atomicfile/dirsync"
	// CheckpointFlush fires at the start of every checkpoint flush.
	CheckpointFlush = "checkpoint/flush"
	// CheckpointLoad fires at the start of a checkpoint load.
	CheckpointLoad = "checkpoint/load"
	// IndexSave fires at the start of Index.SaveFile.
	IndexSave = "index/save"
	// IndexDirLoad fires in index.LoadServing before the header and block
	// directory are read: an error here simulates an unreadable or torn
	// directory and fails the load.
	IndexDirLoad = "index/dirload"
	// IndexBlockFault fires before every index world block is decoded at
	// load: an injected error is treated exactly like block corruption, so
	// the serving load quarantines that world and a strict read rejects the
	// file.
	IndexBlockFault = "index/blockfault"
	// StoreSave fires at the start of core.SaveSpheresFile.
	StoreSave = "core/save-spheres"
	// SketchSave fires at the start of Sketch.SaveFile.
	SketchSave = "sketch/save"
	// PoolTask fires before every task the worker pool hands out.
	PoolTask = "pool/task"
	// ServerCompute fires in the soid query server after a request is
	// admitted (holding a compute slot) and before it computes; a delay here
	// makes overload deterministic in tests and smoke scripts.
	ServerCompute = "server/compute"
)

// Kind selects what an armed failpoint does when it fires.
type Kind int

const (
	// KindError makes Hit return Failpoint.Err (ErrInjected if nil).
	KindError Kind = iota
	// KindDelay makes Hit sleep for Failpoint.Delay and return nil.
	KindDelay
	// KindPanic makes Hit panic with Failpoint.PanicValue ("fault: injected
	// panic" if nil) — for exercising panic-isolation layers.
	KindPanic
	// KindKill makes Hit return ErrKilled: the caller must abandon the
	// operation immediately *without cleanup*, leaving on-disk state exactly
	// as a SIGKILL at that instant would. Instrumented code checks IsKilled
	// to skip deferred temp-file removal and final flushes.
	KindKill
)

// ErrInjected is the default error returned by a KindError failpoint.
var ErrInjected = errors.New("fault: injected error")

// ErrKilled is returned by a KindKill failpoint. Code observing it must
// propagate immediately and skip every cleanup path (temp-file removal,
// final checkpoint flushes, checkpoint deletion): the point is to leave the
// filesystem exactly as a process killed at that instant would.
var ErrKilled = errors.New("fault: simulated process kill")

// IsKilled reports whether err is (or wraps) a simulated kill.
func IsKilled(err error) bool { return errors.Is(err, ErrKilled) }

// Failpoint describes one armed site.
type Failpoint struct {
	Kind       Kind
	Err        error         // KindError; nil selects ErrInjected
	Delay      time.Duration // KindDelay
	PanicValue any           // KindPanic; nil selects a default string
	After      int           // skip the first After hits
	Times      int           // fire at most Times times; 0 = unlimited
}

type armed struct {
	fp   Failpoint
	hits atomic.Int64
}

var (
	active   atomic.Bool // test hook / env gate
	armedLen atomic.Int64
	mu       sync.Mutex
	sites    = map[string]*armed{}
)

// SetActive is the test hook gating the registry: Enable fails until
// SetActive(true). Tests should `fault.SetActive(true)` and
// `defer fault.Reset()`.
func SetActive(on bool) {
	active.Store(on)
	if !on {
		Reset()
	}
}

// Active reports whether the registry is unlocked.
func Active() bool { return active.Load() }

// Enable arms a failpoint at site. It fails unless the registry was unlocked
// via SetActive or the SOI_FAILPOINTS environment allowlist.
func Enable(site string, fp Failpoint) error {
	if !active.Load() {
		return fmt.Errorf("fault: registry locked (call SetActive or set SOI_FAILPOINTS); refusing to arm %q", site)
	}
	mu.Lock()
	defer mu.Unlock()
	if _, ok := sites[site]; !ok {
		armedLen.Add(1)
	}
	sites[site] = &armed{fp: fp}
	return nil
}

// Disable disarms site. Disarming an unarmed site is a no-op.
func Disable(site string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := sites[site]; ok {
		delete(sites, site)
		armedLen.Add(-1)
	}
}

// Reset disarms every site.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	sites = map[string]*armed{}
	armedLen.Store(0)
}

// Hits returns how many times site has been hit since it was armed
// (including hits that did not fire because of After/Times).
func Hits(site string) int {
	mu.Lock()
	defer mu.Unlock()
	if a, ok := sites[site]; ok {
		return int(a.hits.Load())
	}
	return 0
}

// Hit is the instrumentation call. With nothing armed anywhere it is a single
// atomic load returning nil. With a failpoint armed at site it counts the hit
// and, when the deterministic trigger matches, injects the configured action.
func Hit(site string) error {
	if armedLen.Load() == 0 {
		return nil
	}
	mu.Lock()
	a := sites[site]
	mu.Unlock()
	if a == nil {
		return nil
	}
	n := a.hits.Add(1) // 1-based hit number
	fired := n - int64(a.fp.After)
	if fired < 1 || (a.fp.Times > 0 && fired > int64(a.fp.Times)) {
		return nil
	}
	switch a.fp.Kind {
	case KindDelay:
		time.Sleep(a.fp.Delay)
		return nil
	case KindPanic:
		v := a.fp.PanicValue
		if v == nil {
			v = "fault: injected panic at " + site
		}
		panic(v)
	case KindKill:
		return fmt.Errorf("%w at %s", ErrKilled, site)
	default:
		if a.fp.Err != nil {
			return a.fp.Err
		}
		return fmt.Errorf("%w at %s", ErrInjected, site)
	}
}

func init() {
	spec := os.Getenv("SOI_FAILPOINTS")
	if spec == "" {
		return
	}
	active.Store(true)
	if err := EnableFromSpec(spec); err != nil {
		// A malformed spec in a production environment must be loud, not
		// silently ignored — it means the operator thought faults were armed.
		fmt.Fprintln(os.Stderr, "fault: bad SOI_FAILPOINTS:", err)
		os.Exit(2)
	}
}

// EnableFromSpec arms failpoints from a spec string:
//
//	site=kind[:after=N][:times=N][:delay=DURATION][;site=kind...]
//
// kind is one of error, delay, panic, kill. Used by the SOI_FAILPOINTS env
// allowlist and exported for integration-test harnesses.
func EnableFromSpec(spec string) error {
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		site, rest, ok := strings.Cut(entry, "=")
		if !ok || site == "" {
			return fmt.Errorf("entry %q: want site=kind", entry)
		}
		parts := strings.Split(rest, ":")
		var fp Failpoint
		switch parts[0] {
		case "error":
			fp.Kind = KindError
		case "delay":
			fp.Kind = KindDelay
		case "panic":
			fp.Kind = KindPanic
		case "kill":
			fp.Kind = KindKill
		default:
			return fmt.Errorf("entry %q: unknown kind %q", entry, parts[0])
		}
		for _, opt := range parts[1:] {
			k, v, ok := strings.Cut(opt, "=")
			if !ok {
				return fmt.Errorf("entry %q: bad option %q", entry, opt)
			}
			switch k {
			case "after":
				n, err := strconv.Atoi(v)
				if err != nil {
					return fmt.Errorf("entry %q: after: %v", entry, err)
				}
				fp.After = n
			case "times":
				n, err := strconv.Atoi(v)
				if err != nil {
					return fmt.Errorf("entry %q: times: %v", entry, err)
				}
				fp.Times = n
			case "delay":
				d, err := time.ParseDuration(v)
				if err != nil {
					return fmt.Errorf("entry %q: delay: %v", entry, err)
				}
				fp.Delay = d
			default:
				return fmt.Errorf("entry %q: unknown option %q", entry, k)
			}
		}
		if err := Enable(site, fp); err != nil {
			return err
		}
	}
	return nil
}
