// Package tokenpicker is a from-scratch Go reproduction of "Token-Picker:
// Accelerating Attention in Text Generation with Minimized Memory Transfer
// via Probability Estimation" (Park et al., DAC 2024).
//
// The package re-exports the library's public surface:
//
//   - probability-estimation token pruning (the paper's algorithm), usable
//     as a standalone Estimator over quantized attention instances or as an
//     attention Kernel plugged into the bundled transformer;
//   - the transformer substrate (model, training, synthetic corpus) that
//     stands in for the paper's pretrained-model evaluation;
//   - the ToPick cycle-level accelerator simulator with its HBM2 memory
//     model, plus the baseline and SpAtten-style comparison points;
//   - the experiment harness that regenerates every figure and table of the
//     paper's evaluation section;
//   - a continuous-batching serving engine that time-slices many concurrent
//     generation sessions across a worker pool, pages their KV caches
//     through a shared ref-counted block pool with prompt-prefix sharing
//     (copy-on-write divergence) and preemptive scheduling under memory
//     pressure, and aggregates pruning statistics fleet-wide — the
//     multi-tenant regime the paper's memory-bound analysis targets.
//
// Quick start:
//
//	res := tokenpicker.TrainDemoModel()
//	kernel := tokenpicker.NewKernel(1e-3) // prune tokens with p'' <= 0.1%
//	dec := tokenpicker.NewDecoder(res.Params, kernel)
//	dec.Prompt(res.Held[:64])
//	logits, err := dec.Step(res.Held[64])
//	_, _ = logits, err // err is ErrContextFull once the window is spent
//	stats := kernel.Stats()
//	fmt.Printf("V pruning ratio: %.1fx\n", stats.PruningRatio())
//
// Serving (generation API v2 — typed requests, pluggable sampling, event
// streams):
//
//	srv := tokenpicker.NewServer(res.Params, tokenpicker.ServeConfig{
//		Workers:   4,
//		NewKernel: func() tokenpicker.Kernel { return tokenpicker.NewKernel(1e-3) },
//	})
//	st, _ := srv.Submit(ctx, tokenpicker.GenerateRequest{
//		Prompt:   res.Held[:64],
//		Sampling: tokenpicker.SamplingConfig{Temperature: 0.8, TopK: 40, Seed: 7},
//	})
//	for ev := range st.Events() {
//		fmt.Println(ev.Index, ev.Token, ev.Elapsed)
//	}
//	res2 := st.Result()
//	fmt.Println(res2.Reason, res2.Usage.GeneratedTokens)
//	srv.Close()
//	fmt.Printf("fleet pruning: %.1fx\n", srv.Report().Attn.PruningRatio())
//
// NewHTTPHandler wraps a Server in the OpenAI-style HTTP front-end
// (POST /v1/completions with optional SSE streaming, GET /v1/stats);
// `topick-serve -listen :8080` serves it from the CLI.
package tokenpicker

import (
	"io"

	"tokenpicker/internal/attention"
	"tokenpicker/internal/bench"
	"tokenpicker/internal/core"
	"tokenpicker/internal/exec"
	"tokenpicker/internal/fixed"
	"tokenpicker/internal/fleet"
	"tokenpicker/internal/httpapi"
	"tokenpicker/internal/model"
	"tokenpicker/internal/obs"
	"tokenpicker/internal/sample"
	"tokenpicker/internal/serve"
	"tokenpicker/internal/sim/arch"
	"tokenpicker/internal/spatten"
	"tokenpicker/internal/train"
)

// Core algorithm types.
type (
	// Estimator runs Token-Picker probability estimation over one
	// attention instance (core of the paper, §3.1-3.2).
	Estimator = core.Estimator
	// EstimatorConfig parameterizes chunking, threshold, ordering, and
	// scheduling of an Estimator.
	EstimatorConfig = core.Config
	// EstimatorInputs is a quantized attention instance.
	EstimatorInputs = core.Inputs
	// PruneReport is the outcome of one estimation run.
	PruneReport = core.Report
	// ChunkSpec describes the bit-chunk layout of keys in memory.
	ChunkSpec = fixed.ChunkSpec
)

// Model and training types.
type (
	// ModelConfig describes a transformer variant.
	ModelConfig = model.Config
	// Params holds transformer weights.
	Params = model.Params
	// Decoder runs KV-cached generation with a pluggable attention kernel.
	Decoder = model.Decoder
	// Kernel is the attention plug-in interface: one layer per call
	// (AttendLayer over an AttendBatch), heads scheduled on the batch's
	// executor.
	Kernel = model.Kernel
	// AttendBatch carries one layer's attention work: all heads' query and
	// output slices, per-head KV row sources, and shared metadata.
	AttendBatch = model.AttendBatch
	// Executor schedules the heads of an attention layer: Serial inline or
	// a work-stealing pool across cores, with bit-identical results.
	Executor = exec.Executor
	// TrainResult couples trained weights with their corpus splits.
	TrainResult = train.Result
	// TrainOptions sizes a training run.
	TrainOptions = train.Options
)

// Attention kernels and statistics.
type (
	// TokenPickerKernel applies the paper's pruning inside the decoder.
	TokenPickerKernel = attention.TokenPicker
	// TransferStats aggregates off-chip traffic accounting.
	TransferStats = attention.Stats
	// SpAttenConfig parameterizes the cascade-pruning baseline.
	SpAttenConfig = spatten.Config
)

// Serving engine types (generation API v2).
type (
	// Server is the continuous-batching inference engine.
	Server = serve.Server
	// ServeConfig sizes a Server (workers, quantum, pool geometry).
	ServeConfig = serve.Config
	// GenerateRequest is one generation job: prompt, token budget, full
	// sampling configuration, stop sequences. Validate reports typed
	// *RequestError violations.
	GenerateRequest = serve.GenerateRequest
	// SamplingConfig is the pluggable sampling configuration (temperature,
	// top-k, top-p, min-p, repetition penalty, logit bias, seed); the zero
	// value is greedy argmax.
	SamplingConfig = sample.Config
	// Sampler picks the next token from logits; SamplerChain is the
	// composable default implementation.
	Sampler = sample.Sampler
	// SamplerChain applies penalties → top-k → top-p → min-p → temperature
	// → seeded multinomial, deterministically and allocation-free.
	SamplerChain = sample.Chain
	// GenerateEvent is one unit of stream output: token id, index, optional
	// decoded text, and emission timing.
	GenerateEvent = serve.Event
	// ServeStream delivers a session's events and terminal result, with
	// consumer-side cancellation.
	ServeStream = serve.Stream
	// ServeResult is a session's terminal state: structured finish reason
	// (including stop-sequence matches) and per-request usage.
	ServeResult = serve.Result
	// ServeUsage is the per-request token accounting.
	ServeUsage = serve.Usage
	// RequestError is the typed validation failure of one request field.
	RequestError = serve.ValidationError
	// SamplingError is the typed validation failure of one sampling field.
	SamplingError = sample.ConfigError
	// ServeReport is the fleet-wide statistics snapshot.
	ServeReport = serve.Report
	// FinishReason tells why a session stopped.
	FinishReason = serve.FinishReason
	// KVPool is the block-paged, ref-counted KV-cache allocator behind a
	// Server (prefix-shared blocks are copy-on-write; Trim releases idle
	// free-list memory).
	KVPool = serve.Pool
	// KVPoolStats is a pool accounting snapshot.
	KVPoolStats = serve.PoolStats
	// PrefixStats is the prompt-prefix-sharing index accounting
	// (ServeConfig.SharePrefix).
	PrefixStats = serve.PrefixStats
	// KVCache is the decoder's per-(layer, head) cache abstraction.
	KVCache = model.KVCache
	// CacheProvider allocates KV caches for a decoder session.
	CacheProvider = model.CacheProvider
)

// Session finish reasons.
const (
	FinishLength      = serve.ReasonLength
	FinishStop        = serve.ReasonStop
	FinishContextFull = serve.ReasonContextFull
	FinishCanceled    = serve.ReasonCanceled
	FinishRejected    = serve.ReasonRejected
)

// ErrContextFull is returned by Decoder.Step/Prompt when the context window
// is exhausted; the serving engine finishes such sessions gracefully.
var ErrContextFull = model.ErrContextFull

// Serving API sentinels: ErrInvalidRequest matches every request
// validation failure (errors.Is), ErrStreamDone ends a ServeStream.Next
// pull loop, ErrInvalidSampling matches every sampling-config failure.
// ErrBusy matches every admission backpressure rejection — engine
// saturation, fleet-wide admission, and tenant rate limits — and
// ErrServerClosed every submit after Close.
var (
	ErrInvalidRequest  = serve.ErrInvalidRequest
	ErrInvalidSampling = sample.ErrInvalidConfig
	ErrStreamDone      = serve.ErrStreamDone
	ErrBusy            = serve.ErrBusy
	ErrServerClosed    = serve.ErrServerClosed
)

// NewSampler builds the composable sampler chain for a validated sampling
// configuration — the same chain the serving engine runs per session; use
// it directly with a Decoder for single-tenant generation.
func NewSampler(cfg SamplingConfig) (*SamplerChain, error) { return sample.New(cfg) }

// HTTPOptions configures the HTTP front-end (model name, token decoding).
type HTTPOptions = httpapi.Options

// HTTPHandler is the OpenAI-style HTTP front-end; it implements
// http.Handler. SetDraining(true) flips GET /readyz to 503 for
// load-balancer drain during graceful shutdown.
type HTTPHandler = httpapi.Handler

// NewHTTPHandler wraps a Server in the OpenAI-style HTTP API:
// POST /v1/completions (JSON; SSE streaming with a [DONE] terminator when
// "stream" is true), GET /v1/stats (engine/pool/prefix statistics and
// latency summaries), GET /v1/trace (lifecycle span tail), GET /metrics
// (Prometheus text format), GET /healthz (liveness), and GET /readyz
// (readiness/draining). Serve it with net/http.
func NewHTTPHandler(srv *Server, opts HTTPOptions) *HTTPHandler {
	return httpapi.New(srv, opts)
}

// Fleet serving types (engine replication with prefix-affinity routing).
type (
	// Fleet fronts N independent Server replicas with prefix-affinity
	// rendezvous routing, per-tenant token-rate limits, and fleet-wide
	// admission control; token streams stay bit-identical to a single
	// engine.
	Fleet = fleet.Fleet
	// FleetConfig sizes a Fleet: replica count, affinity routing, spill
	// margin, tenant rate limits, and the per-replica engine template.
	FleetConfig = fleet.Config
	// FleetRequest is a GenerateRequest plus the tenant identity the rate
	// limiter buckets by.
	FleetRequest = fleet.Request
	// FleetReport is the fleet-wide snapshot: per-replica engine reports
	// plus router accounting; Rollup folds it into one ServeReport.
	FleetReport = fleet.Report
	// FleetRoutingStats is the router-side accounting (affinity / spilled /
	// balanced admissions, rate-limit and admission rejections).
	FleetRoutingStats = fleet.RoutingStats
	// FleetMetrics is the fleet's own registry: topick_fleet_* families.
	FleetMetrics = fleet.Metrics
	// FleetRateLimitError reports a tenant over its token budget; it
	// matches ErrBusy so transports keep their 429 mapping.
	FleetRateLimitError = fleet.RateLimitError
)

// NewFleet builds and starts a replica fleet over shared read-only params.
// The config must be valid (FleetConfig.Validate); NewFleet panics
// otherwise.
func NewFleet(p *Params, cfg FleetConfig) *Fleet { return fleet.NewFleet(p, cfg) }

// NewFleetHTTPHandler wraps a Fleet in the same OpenAI-style HTTP API as
// NewHTTPHandler, plus the fleet surface: aggregated per-replica
// GET /v1/stats, GET /v1/replicas/{id}/stats and /metrics, tenant rate
// limiting keyed by the request's "user" field, and X-Request-ID
// correlation across replicas.
func NewFleetHTTPHandler(fl *Fleet, opts HTTPOptions) *HTTPHandler {
	return httpapi.NewFleet(fl, opts)
}

// Observability types (engine-wide metrics and lifecycle tracing).
type (
	// ServeMetrics is the engine's zero-alloc metrics surface: lifecycle
	// counters, latency histograms, and scrape-time views of the pool,
	// prefix index, scheduler, and executors (Server.Metrics()).
	ServeMetrics = serve.Metrics
	// MetricsRegistry renders metric families in the Prometheus text
	// exposition format (WritePrometheus).
	MetricsRegistry = obs.Registry
	// Tracer records per-session lifecycle span events into a ring buffer
	// (ServeConfig.Tracer), optionally teeing them to a JSONL sink.
	Tracer = obs.Tracer
	// TraceEvent is one lifecycle span event.
	TraceEvent = obs.Event
	// TraceJSONLWriter streams trace events as JSON lines, allocation-free.
	TraceJSONLWriter = obs.JSONLWriter
	// ExecSlotStats is the work-stealing executor accounting (tasks run,
	// steals, busy time) reported fleet-wide in ServeReport.Exec.
	ExecSlotStats = exec.SlotStats
)

// NewTracer builds a lifecycle tracer with the given ring capacity; assign
// it to ServeConfig.Tracer before NewServer.
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// NewTraceJSONLWriter builds a JSONL trace sink over w (schema header
// included); install with Tracer.SetSink and Flush before reading the file.
func NewTraceJSONLWriter(w io.Writer) *TraceJSONLWriter { return obs.NewJSONLWriter(w) }

// ParseTrace reads a JSONL serving trace back into events, rejecting schema
// drift; ValidateTrace checks the result is a consistent serving history.
func ParseTrace(r io.Reader) ([]TraceEvent, error) { return obs.ParseTrace(r) }

// ValidateTrace checks a trace for timeline consistency: monotonic
// timestamps, matched preempt/park/resume triples, and finish accounting.
// allowPartial tolerates sessions truncated by the ring buffer.
func ValidateTrace(events []TraceEvent, allowPartial bool) error {
	return obs.ValidateTimeline(events, allowPartial)
}

// Hardware simulation types.
type (
	// AccelConfig parameterizes the cycle-level accelerator model.
	AccelConfig = arch.Config
	// AccelSim is the event-driven ToPick/baseline simulator.
	AccelSim = arch.Sim
	// AccelResult is a simulation outcome.
	AccelResult = arch.Result
	// AccelInstance is one attention workload for the simulator.
	AccelInstance = arch.Instance
)

// Accelerator modes (paper Fig. 10 configurations plus the in-order
// ablation).
const (
	ModeBaseline      = arch.ModeBaseline
	ModeProbEst       = arch.ModeProbEst
	ModeToPick        = arch.ModeToPick
	ModeToPickInOrder = arch.ModeToPickInOrder
)

// NewEstimator builds the paper-default estimator at the given probability
// threshold (12-bit operands, three 4-bit chunks, locality ordering).
func NewEstimator(threshold float64) *Estimator {
	return core.MustNewEstimator(core.DefaultConfig(threshold))
}

// NewEstimatorFrom builds an estimator from a custom configuration.
func NewEstimatorFrom(cfg EstimatorConfig) (*Estimator, error) {
	return core.NewEstimator(cfg)
}

// NewKernel returns the Token-Picker attention kernel at the given
// threshold, ready to plug into a Decoder.
func NewKernel(threshold float64) *TokenPickerKernel {
	return attention.NewTokenPicker(threshold)
}

// NewExactKernel returns 12-bit full-softmax attention (the non-pruning
// baseline's arithmetic).
func NewExactKernel() Kernel { return attention.NewQuantizedExact() }

// NewSpAttenKernel returns the cascade-pruning comparison kernel.
func NewSpAttenKernel(cfg SpAttenConfig) Kernel { return spatten.New(cfg) }

// NewDecoder wraps model.NewDecoder.
func NewDecoder(p *Params, k Kernel) *Decoder { return model.NewDecoder(p, k) }

// NewExecutor builds an intra-step head executor: width <= 1 returns the
// serial executor, larger widths a persistent work-stealing pool. Assign it
// to Decoder.Exec (and Close it when done) to run the heads of every
// attention layer in parallel; outputs stay bit-identical to serial. The
// serving engine sizes its own per-worker executors via
// ServeConfig.HeadParallel instead.
func NewExecutor(width int) Executor { return exec.New(width) }

// ResolveParallel maps a -parallel style flag to an executor width: 0 means
// one slot per CPU, anything else is literal.
func ResolveParallel(flag int) int { return exec.ResolveWidth(flag) }

// NewDecoderWith builds a decoder whose KV caches come from the given
// provider (e.g. a KVPool's Provider); nil means on-demand dense buffers.
func NewDecoderWith(p *Params, k Kernel, prov CacheProvider) *Decoder {
	return model.NewDecoderWith(p, k, prov)
}

// NewServer starts the continuous-batching engine over trained params.
// Close it to drain in-flight sessions and stop the workers.
func NewServer(p *Params, cfg ServeConfig) *Server { return serve.NewServer(p, cfg) }

// NewKVPool builds a standalone block-paged KV allocator (blockRows rows of
// headDim floats per block; maxBlocks 0 = unbounded) whose Provider plugs
// into NewDecoderWith.
func NewKVPool(blockRows, headDim, maxBlocks int) *KVPool {
	return serve.NewPool(blockRows, headDim, maxBlocks)
}

// NewAccelSim builds the cycle-level simulator in the given mode and
// pruning threshold with the paper's hardware configuration (Table 1).
func NewAccelSim(mode arch.Mode, threshold float64) *AccelSim {
	return arch.MustNew(arch.DefaultConfig(mode, threshold))
}

// TrainDemoModel trains (once per process) a small language model on the
// synthetic corpus, suitable for examples and quick experiments.
func TrainDemoModel() *TrainResult { return train.TestModel() }

// TrainModel trains a model of the given configuration.
func TrainModel(cfg ModelConfig, opts TrainOptions) *TrainResult {
	return train.Get(cfg, opts)
}

// DemoModelConfig returns the micro transformer configuration used by
// TrainDemoModel.
func DemoModelConfig() ModelConfig { return model.TestConfig() }

// DefaultTrainOptions returns the stand-in family training profile.
func DefaultTrainOptions() TrainOptions { return train.DefaultOptions() }

// Perplexity evaluates teacher-forced perplexity with the given kernel
// (nil = exact attention); warm tokens are consumed as prompt.
func Perplexity(p *Params, tokens []int, k Kernel, warm int) float64 {
	return train.Perplexity(p, tokens, k, warm)
}

// Experiments exposes the paper-reproduction harness. See the bench
// package for per-figure data types.
type Experiments = bench.Options

// ExperimentOptions returns the full-scale experiment configuration
// (honours TOPICK_QUICK for the reduced profile).
func ExperimentOptions() Experiments { return bench.FromEnv() }
