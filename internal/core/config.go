package core

import (
	"icrowd/internal/estimate"
	"icrowd/internal/obsv"
	"icrowd/internal/ppr"
	"icrowd/internal/qualify"
	"icrowd/internal/simgraph"
	"icrowd/internal/task"
)

// Config parameterizes the iCrowd framework.
type Config struct {
	// K is the assignment size per microtask (default 3, Section 6.1).
	K int
	// Q is the number of qualification microtasks (default 10, §6.3.1).
	// Ignored when an explicit qualification set is supplied via
	// WithQualification.
	Q int
	// Alpha balances graph smoothness and observation fit in Eq. (2)
	// (default 1.0, Appendix D.2).
	Alpha float64
	// Lambda is the estimator's shrinkage toward the warm-up base accuracy.
	Lambda float64
	// QualStrategy picks qualification microtasks (default InfQF).
	QualStrategy qualify.Strategy
	// WarmupThreshold rejects workers whose qualification accuracy is
	// below it (default 0.6).
	WarmupThreshold float64
	// MinAccuracy is the floor for top-worker-set membership (Definition
	// 3): a worker whose estimated accuracy on a microtask is below the
	// floor does not enter that task's top set and instead receives Step-3
	// test microtasks ("w performs worse than others on all microtasks ...
	// our framework needs to further test the quality of worker w",
	// Section 5). Tasks with no above-floor candidates fall back to the
	// unfiltered top set so the job always progresses. Default 0.55.
	MinAccuracy float64
	// Mode selects Adapt, QF-Only or BestEffort (default Adapt).
	Mode Mode
	// Seed drives the random choices (RandomQF selection).
	Seed int64
	// Eligible optionally restricts which (worker, task) assignments are
	// permitted — e.g. in replay evaluation, a worker can only be assigned
	// microtasks whose answer was collected from them (Section 6.1: "Based
	// on the collected answers, we ran different approaches for task
	// assignment"). nil permits everything. Qualification microtasks are
	// exempt.
	Eligible func(worker string, taskID int) bool
}

// DefaultConfig returns the paper's experimental defaults.
func DefaultConfig() Config {
	return Config{
		K:               3,
		Q:               10,
		Alpha:           1.0,
		Lambda:          estimate.DefaultLambda,
		QualStrategy:    qualify.InfQF,
		WarmupThreshold: qualify.DefaultThreshold,
		MinAccuracy:     0.55,
		Mode:            ModeAdapt,
		Seed:            1,
	}
}

// BasisConfig parameterizes the offline phase of Algorithm 1: similarity
// graph construction (Section 3.3) plus PPR basis precomputation.
type BasisConfig struct {
	// Measure selects the similarity metric (Appendix D.1).
	Measure simgraph.MeasureKind
	// Threshold is the similarity cutoff for graph edges.
	Threshold float64
	// MaxNeighbors caps node degrees (0 = unbounded) — the Figure-10
	// scalability knob.
	MaxNeighbors int
	// Alpha is the PPR balance parameter; <= 0 falls back to the paper's
	// default of 1.0.
	Alpha float64
	// Seed drives measure randomness (LDA topic initialization).
	Seed int64
	// Workers bounds the precompute fan-out (ppr.Options.Workers):
	// 0 uses GOMAXPROCS, 1 forces the sequential solver.
	Workers int
}

// DefaultBasisConfig returns the experiments' default graph/basis setup:
// Jaccard at threshold 0.25, alpha 1.0, unbounded degrees.
func DefaultBasisConfig() BasisConfig {
	return BasisConfig{
		Measure:   simgraph.MeasureJaccard,
		Threshold: 0.25,
		Alpha:     1.0,
		Seed:      1,
	}
}

// BuildBasis constructs the similarity graph for a dataset and precomputes
// the PPR basis (offline phase of Algorithm 1) per the config.
func BuildBasis(ds *task.Dataset, bc BasisConfig) (*ppr.Basis, error) {
	metric, err := simgraph.MetricFor(bc.Measure, ds, bc.Seed)
	if err != nil {
		return nil, err
	}
	g, err := simgraph.Build(ds.Len(), metric, bc.Threshold, bc.MaxNeighbors)
	if err != nil {
		return nil, err
	}
	opts := ppr.DefaultOptions()
	if bc.Alpha > 0 {
		opts.Alpha = bc.Alpha
	}
	opts.Workers = bc.Workers
	return ppr.Precompute(g, opts)
}

// Option customizes New beyond the plain Config — the functional-options
// half of the v1 constructor API.
type Option func(*newOptions)

type newOptions struct {
	qual        []int
	qualSet     bool
	schemeCache bool
	metrics     *obsv.Registry
	metricsSet  bool
	lazyGraph   *simgraph.Graph
}

// WithQualification supplies an explicit qualification microtask set,
// bypassing Config.QualStrategy selection (Config.Q is ignored).
func WithQualification(qual []int) Option {
	return func(o *newOptions) {
		o.qual = qual
		o.qualSet = true
	}
}

// WithSchemeCache toggles the incremental scheme cache (enabled by
// default). Disabling it forces every Algorithm-2 run to recompute all top
// worker sets from scratch — useful for verification and benchmarking.
func WithSchemeCache(enabled bool) Option {
	return func(o *newOptions) { o.schemeCache = enabled }
}

// WithLazyBasis puts the framework in lazy-basis mode: the basis may be
// partial (e.g. ppr.PrecomputePartial with no seeds, or a smaller basis
// grown with Extend), and the scheduler solves each task's vector on first
// observation via Basis.SolveMissing over the given similarity graph
// instead of the job paying a full Precompute up front. The qualification
// vectors are solved at construction; every later consensus/test
// observation solves exactly its own seed, which
// BenchmarkPrecomputeDelta pins at >= 10x cheaper than a recompute. The
// lazily grown basis is bit-identical to a precomputed one, so results are
// unchanged. The basis must not be shared with another framework while in
// lazy mode (solves mutate it under this instance's lock).
func WithLazyBasis(g *simgraph.Graph) Option {
	return func(o *newOptions) { o.lazyGraph = g }
}

// WithMetrics selects the registry the framework records its hot-path
// metrics into (request latency, scheme recompute latency and dirty-set
// sizes). The default is obsv.Default(); passing nil disables metrics
// entirely — every instrument becomes a no-op and the request path skips
// even the clock reads.
func WithMetrics(reg *obsv.Registry) Option {
	return func(o *newOptions) {
		o.metrics = reg
		o.metricsSet = true
	}
}
