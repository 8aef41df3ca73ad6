package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// gcPercent is the GOGC value of every process the benchmark runs, itself
// included.
const gcPercent = 100

// nproc is the CPU count the benchmark and its daemons schedule onto.
func nproc() int { return runtime.NumCPU() }

// childEnv pins the Go runtime settings of a child process: the same
// GOMAXPROCS and GC settings as the generator, no memory limit, and no
// inherited GODEBUG that could change either side's behaviour.
func childEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		switch strings.SplitN(kv, "=", 2)[0] {
		case "GOMAXPROCS", "GOGC", "GOMEMLIMIT", "GODEBUG", "SOI_INDEX_MMAP", "SOI_FAILPOINTS":
			continue
		}
		env = append(env, kv)
	}
	return append(env,
		"GOMAXPROCS="+strconv.Itoa(nproc()),
		"GOGC="+strconv.Itoa(gcPercent),
		"GOMEMLIMIT=off")
}

// orphanKill makes the kernel kill a child if the benchmark dies first, so
// an interrupted run leaves no daemon or build behind.
func orphanKill() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// proc is one child process with its log file.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{}
	err  error // Wait's result, valid after done closes
}

func startProc(name, bin string, args []string, logPath string) (*proc, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = childEnv()
	cmd.SysProcAttr = orphanKill()
	cmd.Stdout = lf
	cmd.Stderr = lf
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: lf, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		lf.Close()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop asks the process to drain with SIGTERM, escalates to SIGKILL after a
// grace period, and returns only once it has exited.
func (p *proc) stop() {
	if p == nil || p.exited() {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// tail returns the end of the process log, for error messages.
func (p *proc) tail() string {
	b, err := os.ReadFile(p.log.Name())
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// waitAddr waits for the daemon to write its resolved listen address.
func (p *proc) waitAddr(path string, deadline time.Time) (string, error) {
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(path); err == nil && len(strings.TrimSpace(string(b))) > 0 {
			return strings.TrimSpace(string(b)), nil
		}
		if p.exited() {
			return "", fmt.Errorf("%s exited during startup: %v\n%s", p.name, p.err, p.tail())
		}
		time.Sleep(2 * time.Millisecond)
	}
	return "", fmt.Errorf("%s: no listen address before the deadline\n%s", p.name, p.tail())
}

// waitReady polls /readyz until it answers 200.
func waitReady(client *http.Client, p *proc, base string, deadline time.Time) error {
	for time.Now().Before(deadline) {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if p.exited() {
			return fmt.Errorf("%s exited during startup: %v\n%s", p.name, p.err, p.tail())
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s: not ready before the deadline\n%s", p.name, p.tail())
}

// cluster is one gateway over two soid shards.
type cluster struct {
	shards    []*proc
	gw        *proc
	base      string // gateway URL
	shardURLs []string
}

func (c *cluster) procs() []*proc { return append(append([]*proc{}, c.shards...), c.gw) }

// stop drains every daemon and waits for all of them to exit.
func (c *cluster) stop() {
	if c == nil {
		return
	}
	c.gw.stop()
	for _, s := range c.shards {
		s.stop()
	}
}

// launchCluster starts both shards, waits until each is ready, then starts
// the gateway over them and waits until it is ready. The returned duration
// is launch to gateway /readyz 200: artifact loading plus wiring.
func launchCluster(bin string, art *artifacts, dir string, traced bool) (*cluster, time.Duration, error) {
	client := &http.Client{Transport: &http.Transport{Proxy: nil}, Timeout: 2 * time.Second}
	defer client.CloseIdleConnections()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	traceArgs := []string{"-trace-ring", "0"}
	if traced {
		traceArgs = []string{"-trace-ring", "8192", "-trace-sample", "1"}
	}
	deadline := time.Now().Add(60 * time.Second)
	c := &cluster{}
	start := time.Now()
	addrFiles := make([]string, len(art.shards))
	for i, sh := range art.shards {
		addrFiles[i] = filepath.Join(dir, fmt.Sprintf("soid%d.addr", i))
		os.Remove(addrFiles[i])
		args := append([]string{
			"-graph", sh.graph, "-index", sh.index, "-spheres", sh.spheres, "-sketch", sh.sketch,
			"-addr", "127.0.0.1:0", "-addr-file", addrFiles[i], "-drain-timeout", "3s",
		}, traceArgs...)
		p, err := startProc(fmt.Sprintf("soid%d", i), filepath.Join(bin, "soid"), args,
			filepath.Join(dir, fmt.Sprintf("soid%d.log", i)))
		if err != nil {
			c.stop()
			return nil, 0, err
		}
		c.shards = append(c.shards, p)
	}
	for i, p := range c.shards {
		addr, err := p.waitAddr(addrFiles[i], deadline)
		if err == nil {
			c.shardURLs = append(c.shardURLs, "http://"+addr)
			err = waitReady(client, p, c.shardURLs[i], deadline)
		}
		if err != nil {
			c.stop()
			return nil, 0, err
		}
	}
	gwAddr := filepath.Join(dir, "soigw.addr")
	os.Remove(gwAddr)
	args := append([]string{
		"-topology", art.topology, "-replicas", strings.Join(c.shardURLs, ";"),
		"-addr", "127.0.0.1:0", "-addr-file", gwAddr, "-drain-timeout", "3s",
	}, traceArgs...)
	gw, err := startProc("soigw", filepath.Join(bin, "soigw"), args, filepath.Join(dir, "soigw.log"))
	if err != nil {
		c.stop()
		return nil, 0, err
	}
	c.gw = gw
	addr, err := gw.waitAddr(gwAddr, deadline)
	if err == nil {
		c.base = "http://" + addr
		err = waitReady(client, gw, c.base, deadline)
	}
	if err != nil {
		c.stop()
		return nil, 0, err
	}
	return c, time.Since(start), nil
}

// cpuTime returns the time a process's threads have spent on a CPU, in
// nanoseconds, from /proc/<pid>/task/*/schedstat (the tick-based
// /proc/<pid>/stat counts in 10ms steps, too coarse for a few seconds).
func cpuTime(pid int) (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no schedstat for pid %d", pid)
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed %s", t)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// hostTicks are machine-wide CPU ticks from the first line of /proc/stat:
// busy (user, nice, system, irq, softirq) and stolen, the time the
// hypervisor ran another tenant while this machine's CPUs wanted to run.
type hostTicks struct{ busy, steal int64 }

func readHost() (hostTicks, error) {
	var h hostTicks
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return h, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return h, fmt.Errorf("malformed /proc/stat")
	}
	for i, s := range f[1:9] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return h, fmt.Errorf("malformed /proc/stat")
		}
		switch i { // user nice system idle iowait irq softirq steal; guest time is inside user
		case 0, 1, 2, 5, 6:
			h.busy += v
		case 7:
			h.steal = v
		}
	}
	return h, nil
}

// stealPct is the share, in percent, of the CPU time asked for since
// before that the host stole.
func (h hostTicks) stealPct(before hostTicks) float64 {
	steal := h.steal - before.steal
	return 100 * ratio(float64(steal), float64(h.busy-before.busy+steal))
}

// clusterCPU sums the CPU time of every daemon in the cluster.
func clusterCPU(c *cluster) (time.Duration, error) {
	var total time.Duration
	for _, p := range c.procs() {
		t, err := cpuTime(p.pid())
		if err != nil {
			return 0, err
		}
		total += t
	}
	return total, nil
}

// peakRSS returns a process's peak resident set (VmHWM) in bytes.
func peakRSS(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(line[len("VmHWM:"):]), " kB"), 10, 64)
			if err != nil {
				return 0, err
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// httpGet fetches a URL's body, failing on any non-200 status.
func httpGet(client *http.Client, url string) ([]byte, int, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}
