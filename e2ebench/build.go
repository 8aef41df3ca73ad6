package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"soi"
	"soi/internal/graph"
)

// worldsPerShard is ℓ, the number of sampled worlds each shard indexes.
const worldsPerShard = 96

// graphSeed fixes the benchmark graph every workload uses.
const graphSeed = 1

// servingSeed fixes the world sampling of the serving artifacts. The
// workloads vary only their request streams with --seed, so every run of one
// checkout serves the same artifacts.
const servingSeed = 1

// shardFiles are one shard's serving artifacts.
type shardFiles struct {
	graph, index, spheres, sketch string
}

// artifacts are the outputs of one build pass: per-shard files plus the
// topology manifest soigw loads.
type artifacts struct {
	source   string // the whole graph's edge list the pass partitioned
	topology string
	shards   []shardFiles
}

func artifactsAt(prefix string) *artifacts {
	a := &artifacts{
		source:   filepath.Join(filepath.Dir(prefix), "graph.tsv"),
		topology: prefix + "-topology.json",
	}
	for s := 0; s < 2; s++ {
		p := fmt.Sprintf("%s-shard%d", prefix, s)
		a.shards = append(a.shards, shardFiles{
			graph: p + ".tsv", index: p + ".idx", spheres: p + ".spheres", sketch: p + ".skc",
		})
	}
	return a
}

// files lists the artifacts artifact_mb counts: indexes, sphere stores,
// sketches and the topology manifest.
func (a *artifacts) files() []string {
	out := []string{a.topology}
	for _, s := range a.shards {
		out = append(out, s.index, s.spheres, s.sketch)
	}
	return out
}

func (a *artifacts) bytes() (int64, error) {
	var total int64
	for _, f := range a.files() {
		st, err := os.Stat(f)
		if err != nil {
			return 0, err
		}
		total += st.Size()
	}
	return total, nil
}

// passStats measures one build pass.
type passStats struct {
	wall    time.Duration
	peakRSS int64 // bytes, largest single process
	// spans sums the seconds of the telemetry spans the pass's processes
	// reported, by span name (index.build, core.compute_all, sketch.build).
	spans map[string]float64
}

// statsReport is the subset of sphere's -stats-json report read here.
type statsReport struct {
	Spans []struct {
		Name    string  `json:"name"`
		Seconds float64 `json:"seconds"`
	} `json:"spans"`
}

// buildPass runs the offline pipeline the way an operator would: sphere
// -shards 2 writes the per-shard graphs, indexes, sphere stores and the
// topology manifest, then one sphere -sketch-out per shard keys a sketch to
// the saved index file. Every step writes its -stats-json report, whose
// spans the pass sums.
func buildPass(bin, graphPath, prefix string, seed uint64, logPath string) (passStats, error) {
	st := passStats{spans: map[string]float64{}}
	logf, err := os.Create(logPath)
	if err != nil {
		return st, err
	}
	defer logf.Close()
	step := 0
	runStep := func(args ...string) error {
		statsPath := fmt.Sprintf("%s-stats%d.json", prefix, step)
		step++
		args = append(args, "-stats-json", statsPath)
		cmd := exec.Command(filepath.Join(bin, "sphere"), args...)
		cmd.Env = childEnv()
		cmd.SysProcAttr = orphanKill()
		cmd.Stdout = logf
		cmd.Stderr = logf
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("sphere %v: %w (log %s)", args, err, logPath)
		}
		ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		if rss := ru.Maxrss << 10; rss > st.peakRSS {
			st.peakRSS = rss
		}
		b, err := os.ReadFile(statsPath)
		if err != nil {
			return err
		}
		var rep statsReport
		if err := json.Unmarshal(b, &rep); err != nil {
			return fmt.Errorf("%s: %w", statsPath, err)
		}
		for _, sp := range rep.Spans {
			st.spans[sp.Name] += sp.Seconds
		}
		return nil
	}
	start := time.Now()
	if err := runStep("-graph", graphPath, "-samples", fmt.Sprint(worldsPerShard),
		"-seed", fmt.Sprint(seed), "-shards", "2", "-shard-out", prefix); err != nil {
		return st, err
	}
	a := artifactsAt(prefix)
	for s, sh := range a.shards {
		if err := runStep("-graph", sh.graph, "-index", sh.index, "-sketch-out", sh.sketch,
			"-seed", fmt.Sprint(seed+uint64(s))); err != nil {
			return st, err
		}
	}
	st.wall = time.Since(start)
	return st, nil
}

// writeGraph generates the benchmark graph and writes it as an edge list.
func writeGraph(path string) (*graph.Graph, error) {
	g, err := makeGraph(benchGraphSpec, graphSeed)
	if err != nil {
		return nil, err
	}
	return g, graph.SaveFile(path, g, nil)
}

// servingArtifacts returns the serving workloads' artifacts, building them on
// first use. They live in a directory keyed by the sphere binary's content
// hash, so artifacts are rebuilt whenever the code that writes them changes
// and are never shared between two versions of the program.
func servingArtifacts(opts options) (*artifacts, uint64, error) {
	bin, err := os.ReadFile(filepath.Join(opts.bin, "sphere"))
	if err != nil {
		return nil, 0, fmt.Errorf("reading the sphere binary (build it with run.sh): %w", err)
	}
	h := sha256.New()
	h.Write(bin)
	fmt.Fprintf(h, "%+v %d %d %d", benchGraphSpec, worldsPerShard, graphSeed, servingSeed)
	key := hex.EncodeToString(h.Sum(nil))[:16]
	dir := filepath.Join(opts.work, "serving", key)
	fpPath := filepath.Join(dir, "graph.fp")
	if b, err := os.ReadFile(fpPath); err == nil {
		var fp uint64
		if _, err := fmt.Sscanf(string(b), "%x", &fp); err == nil {
			return artifactsAt(filepath.Join(dir, "net")), fp, nil
		}
	}

	fmt.Fprintf(os.Stderr, "e2ebench: building serving artifacts in %s\n", dir)
	tmp := fmt.Sprintf("%s.tmp-%d", dir, os.Getpid())
	os.RemoveAll(tmp)
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(tmp)
	g, err := writeGraph(filepath.Join(tmp, "graph.tsv"))
	if err != nil {
		return nil, 0, err
	}
	fp := soi.Fingerprint(g)
	a := artifactsAt(filepath.Join(tmp, "net"))
	if _, err := buildPass(opts.bin, a.source, filepath.Join(tmp, "net"),
		servingSeed, filepath.Join(tmp, "build.log")); err != nil {
		return nil, 0, err
	}
	if _, err := verifyBuild(a, servingSeed, newPopulation(g, benchGraphSpec.NodesPerCopy)); err != nil {
		return nil, 0, fmt.Errorf("verifying the serving artifacts: %w", err)
	}
	if err := os.WriteFile(filepath.Join(tmp, "graph.fp"), []byte(fmt.Sprintf("%016x\n", fp)), 0o644); err != nil {
		return nil, 0, err
	}
	os.RemoveAll(dir)
	if err := os.Rename(tmp, dir); err != nil {
		return nil, 0, err
	}
	return artifactsAt(filepath.Join(dir, "net")), fp, nil
}

// fileDigest hashes a file's bytes, to check that two passes with the same
// seed wrote identical artifacts.
func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func artifactDigests(a *artifacts) ([]string, error) {
	var out []string
	for _, f := range a.files() {
		d, err := fileDigest(f)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}
