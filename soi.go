// Package soi — Spheres of Influence — is a Go implementation of
// "Spheres of Influence for More Effective Viral Marketing"
// (Mehmood, Bonchi & García-Soriano, SIGMOD 2016).
//
// Given a directed probabilistic graph, the library computes for any node s
// its *typical cascade*: the set of nodes minimizing the expected Jaccard
// distance to a random contagion cascade started at s under the Independent
// Cascade model. The expected distance of that set — its *stability* — says
// how predictable s's influence is. On top of the typical cascades the
// library implements the paper's InfMax_TC influence-maximization method
// (greedy max-cover over the spheres of influence), the standard CELF greedy
// baseline, probability learning from propagation logs (Saito EM and Goyal
// frequentist), reliability queries, and a full experiment harness
// regenerating every table and figure of the paper.
//
// The typical workflow is:
//
//	g, _, err := soi.LoadGraph("network.tsv")     // or soi.Generate / builder
//	idx, err := soi.BuildIndex(ctx, g, soi.IndexOptions{Samples: 1000, Seed: 1}, soi.ResumeConfig{})
//	sphere := soi.TypicalCascade(idx, v, soi.TypicalOptions{CostSamples: 1000})
//	spheres, err := soi.AllTypicalCascades(ctx, idx, soi.TypicalOptions{}, soi.ResumeConfig{})
//	seeds, err := soi.SelectSeedsTC(ctx, g, soi.SpheresOf(spheres), 200)
//
// Every algorithm has one entry point, and it is context-first: each
// long-running API takes a context.Context as its first argument for
// cooperative cancellation and deadlines. The sampling phases that can be
// checkpointed or degraded under a deadline (BuildIndex,
// AllTypicalCascades, ExpectedSpread, SelectSeedsRR) take a ResumeConfig
// last, and EstimateStability takes a Budget; the zero value of either is
// the plain run.
//
// This package is a thin facade: the implementation lives in the internal/
// packages documented in DESIGN.md.
package soi

import (
	"context"
	"io"
	"net/http"

	"soi/internal/cascade"
	"soi/internal/checkpoint"
	"soi/internal/core"
	"soi/internal/datasets"
	"soi/internal/gen"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/infmax"
	"soi/internal/jaccard"
	"soi/internal/probs"
	"soi/internal/proplog"
	"soi/internal/reliability"
	"soi/internal/telemetry"
)

// Telemetry is a race-safe, zero-dependency metrics registry: counters,
// gauges and log-scale histograms. A registry reaches a computation the
// way cancellation does: put it on the context with WithTelemetry and every
// context-first call under that context reports into it. The calls that
// take no context (TypicalCascade, SeedSetTypicalCascade) report into the
// registry attached to their Index with Index.SetTelemetry; BuildIndex
// attaches its context's registry to the index it builds. Without a
// registry all instrumentation costs one nil check per event. Expose it
// with TelemetryHandler (Prometheus) or read a structured TelemetryReport
// when the run ends. Phase timing is not kept here: the CLIs and soid time
// the compute phases as trace spans.
type Telemetry = telemetry.Registry

// NewTelemetry creates an empty metrics registry.
func NewTelemetry() *Telemetry { return telemetry.New() }

// WithTelemetry returns ctx carrying r: the context-first calls made with
// the returned context report their metrics into r.
func WithTelemetry(ctx context.Context, r *Telemetry) context.Context {
	return telemetry.NewContext(ctx, r)
}

// TelemetryReport is the machine-readable run report (schema
// telemetry.ReportSchema): run info, counters, gauges and histogram
// snapshots. Its span tree is filled only by the batch CLIs, from their
// run's trace; a registry's own Report leaves it empty.
type TelemetryReport = telemetry.Report

// TelemetryHandler serves r's metrics in Prometheus text exposition format;
// mount it on any mux. A nil registry serves an empty (valid) page.
func TelemetryHandler(r *Telemetry) http.Handler { return r.Handler() }

// ResumeConfig configures the crash-safe execution layer that BuildIndex,
// AllTypicalCascades, ExpectedSpread and SelectSeedsRR take as their last
// argument: a checkpoint file (periodically, atomically flushed off the
// worker hot path, fingerprint-keyed so stale checkpoints are rejected)
// and/or a deadline budget for best-effort partial results. The zero value
// is the plain run and costs nothing more.
type ResumeConfig = checkpoint.Config

// Budget bounds a resumable run by wall-clock deadline while demanding a
// minimum number of completed units (worlds/trials/RR sets/nodes).
type Budget = checkpoint.Budget

// ErrPartial is matched by errors.Is for deadline-degraded results; the
// concrete error is a *PartialError carrying the achieved unit count and a
// Theorem-2-style error bound.
var ErrPartial = checkpoint.ErrPartial

// PartialError annotates a deadline-degraded result.
type PartialError = checkpoint.PartialError

// Checkpoint-rejection errors: a checkpoint written for different inputs
// (ErrCheckpointStale) or failing its CRC32-C footer (ErrCheckpointCorrupt)
// aborts the run instead of silently resuming.
var (
	ErrCheckpointStale   = checkpoint.ErrStale
	ErrCheckpointCorrupt = checkpoint.ErrCorrupt
)

// NodeID identifies a node; ids are dense in [0, NumNodes).
type NodeID = graph.NodeID

// Graph is an immutable directed probabilistic graph (CSR storage).
type Graph = graph.Graph

// GraphBuilder accumulates edges and produces a Graph.
type GraphBuilder = graph.Builder

// Edge is a directed probabilistic edge.
type Edge = graph.Edge

// NewGraphBuilder returns a builder for a graph with n nodes.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// LoadGraph reads an edge-list TSV file ("from to probability" per line) and
// returns the graph plus the dense-ID -> original-ID mapping.
func LoadGraph(path string) (*Graph, []int64, error) { return graph.LoadFile(path) }

// SaveGraph writes g as an edge-list TSV file.
func SaveGraph(path string, g *Graph, origIDs []int64) error {
	return graph.SaveFile(path, g, origIDs)
}

// Fingerprint returns the FNV-1a content fingerprint of g: the graph an index
// file records and its loaders check, and what soid logs, pins with
// -expect-fp and reports from /v1/info.
func Fingerprint(g *Graph) uint64 {
	return checkpoint.NewHasher().Graph(g).Sum()
}

// GenConfig configures the synthetic graph generators ("ba", "er", "ws",
// "copying").
type GenConfig = gen.Config

// Generate builds a synthetic social graph; apply a probability assignment
// afterwards (WeightedCascade, FixedProbs, LearnSaito, ...).
func Generate(cfg GenConfig) (*Graph, error) { return gen.Generate(cfg) }

// IndexOptions configures cascade-index construction.
type IndexOptions = index.Options

// Index is the cascade index of the paper's §4: ℓ sampled possible worlds
// stored as SCC condensations plus a node→component matrix.
type Index = index.Index

// IndexScratch holds reusable per-goroutine query buffers.
type IndexScratch = index.Scratch

// Model is a propagation model: IndexOptions.Model, Index.Model and
// EstimateStability take one.
type Model = index.Model

// Propagation-model selectors for IndexOptions.Model.
const (
	ModelIC = index.IC
	ModelLT = index.LT
)

// BuildIndex samples opts.Samples possible worlds of g and indexes them.
// Build workers check ctx between worlds and a canceled or expired context
// returns ctx.Err() promptly. Worker panics are recovered and returned as
// errors carrying the stack instead of crashing the process.
//
// cfg (zero for the plain run) adds the crash-safe execution layer:
// completed worlds are periodically checkpointed so a crash or cancellation
// loses at most one flush interval of work, and a rerun with the same graph,
// options, and checkpoint path produces an index bit-identical to an
// uninterrupted build. With a deadline Budget it returns a partial index
// over the completed worlds plus an error matching ErrPartial.
func BuildIndex(ctx context.Context, g *Graph, opts IndexOptions, cfg ResumeConfig) (*Index, error) {
	return index.Build(ctx, g, opts, cfg)
}

// LoadIndex reads a serialized index for graph g.
func LoadIndex(path string, g *Graph) (*Index, error) { return index.LoadFile(path, g) }

// TypicalOptions configures typical-cascade computation.
type TypicalOptions = core.Options

// Sphere is the typical cascade of a source, with its stability estimates.
type Sphere = core.Result

// Median-algorithm selectors for TypicalOptions.Algorithm.
const (
	MedianPrefix   = core.MedianPrefix
	MedianMajority = core.MedianMajority
	MedianExact    = core.MedianExact
)

// TypicalCascade computes the sphere of influence of node v.
func TypicalCascade(x *Index, v NodeID, opts TypicalOptions) Sphere {
	return core.Compute(x, v, opts)
}

// SeedSetTypicalCascade computes the typical cascade of a whole seed set
// (used for the paper's seed-set stability analysis).
func SeedSetTypicalCascade(x *Index, seeds []NodeID, opts TypicalOptions) Sphere {
	return core.ComputeFromSet(x, seeds, opts)
}

// AllTypicalCascades computes the sphere of influence of every node
// (Algorithm 2), in parallel. Workers check ctx between nodes and between
// held-out cost cascades, and a canceled context returns ctx.Err() promptly
// with a nil result. Worker panics are recovered into errors.
//
// cfg (zero for the plain run) adds the crash-safe execution layer: each
// node's sphere is periodically checkpointed (keyed on the index contents,
// so resuming against a different index is rejected as stale). With a
// deadline Budget it returns the spheres computed so far — unreached nodes
// have nil Seeds — plus an error matching ErrPartial.
func AllTypicalCascades(ctx context.Context, x *Index, opts TypicalOptions, cfg ResumeConfig) ([]Sphere, error) {
	return core.ComputeAll(ctx, x, opts, cfg)
}

// SaveSpheres / LoadSpheres persist the results of AllTypicalCascades, the
// paper's §8 deployment story: compute the spheres once, reuse them for
// every subsequent campaign (plain, weighted or budgeted max-cover). The
// store records the fingerprint of x, the index the spheres were computed
// from, so a server refuses it next to any other index.
func SaveSpheres(path string, x *Index, results []Sphere) error {
	return core.SaveSpheresFile(path, x.Fingerprint(), results)
}

// LoadSpheres reads a sphere store written by SaveSpheres.
func LoadSpheres(path string) ([]Sphere, error) {
	return core.LoadSpheresFile(path)
}

// WeightedTypicalCascade computes the sphere of influence under node values
// (the §8 scenario: market segments worth different amounts): the set
// minimizing the expected *weighted* Jaccard distance to a random cascade.
// weight is indexed by node id; ids beyond the slice weigh 1.
func WeightedTypicalCascade(x *Index, seeds []NodeID, weight []float64, opts TypicalOptions) Sphere {
	return core.ComputeWeighted(x, seeds, weight, opts)
}

// WeightedJaccardDistance returns the weighted Jaccard distance of two
// sorted node sets under per-node weights.
func WeightedJaccardDistance(a, b []NodeID, weight []float64) float64 {
	return jaccard.WeightedDistance(a, b, weight)
}

// Mode is one cascade mode of a source (see AnalyzeModes).
type Mode = core.Mode

// AnalyzeModes clusters the sampled cascades of v into at most k modes
// (k-medoids under Jaccard distance), revealing e.g. die-out vs take-off
// structure that a single typical cascade cannot express.
func AnalyzeModes(x *Index, v NodeID, k int) []Mode { return core.AnalyzeModes(x, v, k) }

// TakeoffProbability sums the probability of all modes larger than the
// dominant one — how often a cascade escapes its most typical behaviour.
func TakeoffProbability(modes []Mode) float64 { return core.TakeoffProbability(modes) }

// EstimateStability estimates ρ_{g,seeds}(set): the expected Jaccard
// distance between set and a fresh random cascade from seeds, sampled under
// model — pass the Model of the index the set came from (Index.Model), so
// an LT sphere is scored under LT. Lower is more stable. ctx is checked between cascade samples. It returns the estimate
// and the achieved sample count. A zero budget draws all samples; under a
// wall-clock budget (the query-serving form) sampling stops when the
// deadline is too near to fit another cascade, and — when that truncated
// sampling past the budget minimum — the error matches ErrPartial and its
// *PartialError carries the error bound.
func EstimateStability(ctx context.Context, g *Graph, seeds, set []NodeID, samples int, seed uint64, model Model, budget Budget) (float64, int, error) {
	return core.EstimateCost(ctx, g, seeds, set, samples, seed, model, budget, nil)
}

// JaccardDistance returns d_J(a, b) for sorted node sets.
func JaccardDistance(a, b []NodeID) float64 { return jaccard.Distance(a, b) }

// ExpectedSpread estimates σ(seeds) under the IC model by Monte Carlo. The
// simulation workers check ctx between trials.
//
// cfg (zero for the plain run) adds the crash-safe execution layer: the
// per-trial cascade sizes are summed into a checkpoint so a rerun returns a
// value bit-identical to an uninterrupted run. With a deadline Budget it
// returns the mean over the completed trials plus an error matching
// ErrPartial (the bound is normalized to [0,1]; multiply by NumNodes for
// spread units).
func ExpectedSpread(ctx context.Context, g *Graph, seeds []NodeID, trials int, seed uint64, cfg ResumeConfig) (float64, error) {
	return cascade.ExpectedSpread(ctx, g, seeds, trials, seed, 0, cfg)
}

// SpreadFromIndex estimates σ(seeds) over the worlds of a prebuilt index,
// the shared-sample estimator both influence-maximization methods use.
func SpreadFromIndex(x *Index, seeds []NodeID, s *IndexScratch) float64 {
	return cascade.SpreadFromIndex(x, seeds, s)
}

// Selection is a seed-selection outcome (seeds in pick order, with marginal
// gains in the method's objective units).
type Selection = infmax.Selection

// Spheres is the per-node typical-cascade input to SelectSeedsTC.
type Spheres = infmax.Spheres

// SpheresOf extracts the sphere sets from AllTypicalCascades results.
func SpheresOf(results []Sphere) Spheres {
	out := make(Spheres, len(results))
	for i := range results {
		out[i] = results[i].Set
	}
	return out
}

// SelectSeedsStd runs standard greedy influence maximization with CELF on
// the expected spread over the index's fixed sampled worlds (fast,
// deterministic; recommended). ctx is checked before every gain evaluation.
func SelectSeedsStd(ctx context.Context, x *Index, k int) (Selection, error) {
	return infmax.Std(ctx, x, k)
}

// MCOptions configures the Monte-Carlo greedy.
type MCOptions = infmax.MCOptions

// SelectSeedsStdMC runs the paper-faithful InfMax_std: CELF greedy whose
// marginal gains are re-estimated with fresh IC simulations at every
// evaluation. Slower and noisier than SelectSeedsStd — the noise is the
// saturation mechanism the paper analyzes. ctx is checked before every
// marginal-gain evaluation and between Monte-Carlo trials, so a canceled
// context aborts the greedy promptly with ctx.Err().
func SelectSeedsStdMC(ctx context.Context, g *Graph, k int, opts MCOptions) (Selection, error) {
	return infmax.StdMC(ctx, g, k, opts)
}

// SelectSeedsTC runs the paper's InfMax_TC (Algorithm 3): greedy maximum
// coverage over the spheres of influence. ctx is checked before every gain
// evaluation.
func SelectSeedsTC(ctx context.Context, g *Graph, spheres Spheres, k int) (Selection, error) {
	return infmax.TC(ctx, g, spheres, k, infmax.TCOptions{})
}

// RROptions configures the reverse-reachable-sketch method.
type RROptions = infmax.RROptions

// SelectSeedsRR runs reverse-reachable-sketch influence maximization (Borgs
// et al. / TIM style): greedy max-cover over sampled RR sets. ctx is checked
// between RR-set samples and greedy rounds.
//
// cfg (zero for the plain run) adds the crash-safe execution layer: sampled
// RR sets are periodically checkpointed and a rerun selects seeds
// bit-identical to an uninterrupted run. The fingerprint excludes k, so one
// checkpoint serves runs with different seed-set sizes. With a deadline
// Budget the greedy runs over the RR sets sampled so far and the result
// carries an error matching ErrPartial.
func SelectSeedsRR(ctx context.Context, g *Graph, k int, opts RROptions, cfg ResumeConfig) (Selection, error) {
	return infmax.RR(ctx, g, k, opts, cfg)
}

// RRAutoOptions configures the self-budgeting RR method.
type RRAutoOptions = infmax.RRAutoOptions

// SelectSeedsRRAuto is SelectSeedsRR with TIM's automatic sample-size
// selection: the number of RR sets is derived from the graph (KPT
// estimation) to guarantee a (1-1/e-ε)-approximation. Returns the selection
// and the θ chosen. ctx is checked during both TIM phases (KPT estimation
// and RR sampling).
func SelectSeedsRRAuto(ctx context.Context, g *Graph, k int, opts RRAutoOptions) (Selection, int, error) {
	return infmax.RRAuto(ctx, g, k, opts)
}

// SelectSeedsDegree and SelectSeedsRandom are the classical baselines.
func SelectSeedsDegree(g *Graph, k int) (Selection, error) { return infmax.Degree(g, k) }

// SelectSeedsDegreeDiscount runs the DegreeDiscountIC heuristic (Chen et
// al., KDD 2009) for roughly-uniform edge probability p.
func SelectSeedsDegreeDiscount(g *Graph, k int, p float64) (Selection, error) {
	return infmax.DegreeDiscount(g, k, p)
}

// SelectSeedsRandom selects k uniformly random seeds.
func SelectSeedsRandom(g *Graph, k int, seed uint64) (Selection, error) {
	return infmax.Random(g, k, seed)
}

// WeightedCascade assigns p(u,v) = 1/inDeg(v).
func WeightedCascade(g *Graph) (*Graph, error) { return probs.WeightedCascade(g) }

// FixedProbs assigns the same probability to every edge.
func FixedProbs(g *Graph, p float64) (*Graph, error) { return probs.Fixed(g, p) }

// TrivalencyProbs assigns each edge a probability from {0.1, 0.01, 0.001}.
func TrivalencyProbs(g *Graph, seed uint64) (*Graph, error) { return probs.Trivalency(g, seed) }

// PropagationLog is a (user, item, time) action log.
type PropagationLog = proplog.Log

// LogEvent is one action in a PropagationLog.
type LogEvent = proplog.Event

// NewPropagationLog builds a log from events.
func NewPropagationLog(numUsers int, events []LogEvent) (*PropagationLog, error) {
	return proplog.NewLog(numUsers, events)
}

// ReadPropagationLog parses a "user item time" TSV stream.
func ReadPropagationLog(r io.Reader, numUsers int) (*PropagationLog, error) {
	return proplog.ReadTSV(r, numUsers)
}

// SimulateLog generates a synthetic propagation log by simulating IC item
// cascades over a ground-truth graph.
func SimulateLog(groundTruth *Graph, items, seedsPerItem int, seed uint64) (*PropagationLog, error) {
	return proplog.Generate(groundTruth, proplog.GenerateConfig{
		Items: items, SeedsPerItem: seedsPerItem, Seed: seed,
	})
}

// SaitoConfig configures the EM learner.
type SaitoConfig = probs.SaitoConfig

// LearnSaito learns IC probabilities from a log with Saito et al.'s EM.
func LearnSaito(topology *Graph, log *PropagationLog, cfg SaitoConfig) (*Graph, error) {
	return probs.Saito(topology, log, cfg)
}

// GoyalConfig configures the frequentist learner.
type GoyalConfig = probs.GoyalConfig

// LearnGoyal learns probabilities with Goyal et al.'s frequentist counting.
func LearnGoyal(topology *Graph, log *PropagationLog, cfg GoyalConfig) (*Graph, error) {
	return probs.Goyal(topology, log, cfg)
}

// StreamingLearner is the single-pass, bounded-memory Goyal variant (STRIP
// setting): feed items with ObserveItem/ObserveLog, call Finalize anytime.
type StreamingLearner = probs.StreamingGoyal

// StreamingLearnerConfig configures the streaming learner; Width > 0 bounds
// the propagation-count memory with a count-min sketch.
type StreamingLearnerConfig = probs.StreamingGoyalConfig

// NewStreamingLearner creates a streaming learner over a social topology.
func NewStreamingLearner(topology *Graph, cfg StreamingLearnerConfig) (*StreamingLearner, error) {
	return probs.NewStreamingGoyal(topology, cfg)
}

// Reliability estimates the probability that t is reachable from s. ctx is
// checked between the underlying cascade samples.
func Reliability(ctx context.Context, g *Graph, s, t NodeID, samples int, seed uint64) (float64, error) {
	return reliability.ST(ctx, g, s, t, samples, seed)
}

// ReliabilitySearch returns the nodes reachable from the sources with
// probability at least threshold. ctx is checked between the underlying
// cascade samples.
func ReliabilitySearch(ctx context.Context, g *Graph, sources []NodeID, threshold float64, samples int, seed uint64) ([]NodeID, error) {
	nodes, _, err := reliability.Search(ctx, g, sources, threshold, samples, seed, Budget{})
	return nodes, err
}

// Dataset is one of the paper's 12 experimental configurations materialized
// as a synthetic analog (see DESIGN.md §3).
type Dataset = datasets.Dataset

// DatasetConfig scales and seeds dataset materialization.
type DatasetConfig = datasets.Config

// DatasetNames lists the 12 configuration names (digg-S, ..., slashdot-F).
func DatasetNames() []string { return datasets.Names() }

// LoadDataset materializes one named configuration.
func LoadDataset(name string, cfg DatasetConfig) (*Dataset, error) {
	return datasets.Load(name, cfg)
}
