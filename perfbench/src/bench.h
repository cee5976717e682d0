// Shared pieces of the repo benchmark: arguments, the result line, timing
// statistics, the serving stack each workload stands up, the reference
// digests every response is checked against, and the span tracer of the
// traced run. Every layer is measured from outside, by timing calls into
// its public functions; nothing here reaches into src/ internals.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "embed/embedding.h"
#include "index/sharded_index.h"
#include "koko/ast.h"
#include "koko/engine.h"
#include "net/client.h"
#include "net/server.h"
#include "nlp/pipeline.h"
#include "replay/workloads.h"
#include "serve/query_service.h"

namespace perfbench {

namespace replay = koko::replay;

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Client threads and service pool threads together stay within the
/// 4-thread budget every workload is held to.
inline constexpr size_t kThreadBudget = 4;
inline constexpr size_t kIndexShards = 3;
/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for index images and the trace file.
  std::string workdir = ".";
  /// Self-test knobs: tiny corpora, and one reference digest corrupted on
  /// purpose so the mismatch path is exercised.
  bool tiny = false;
  bool corrupt_digest = false;
};

// ---- Result line ------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The metric sets BENCHMARK.json declares: every untraced run emits
/// exactly kEndToEnd, every traced run exactly kPerLayer.
extern const std::vector<MetricSpec> kEndToEnd;
extern const std::vector<MetricSpec> kPerLayer;

class Report {
 public:
  explicit Report(bool traced) : traced_(traced) {}
  /// Sets a declared metric of this run's set (aborts on an undeclared
  /// name: the emitted set must match BENCHMARK.json exactly).
  void Set(const std::string& name, double value);
  /// Prints the single-line JSON result the runner relays. Per-layer
  /// metrics a workload does not exercise read 0.
  void Print(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  bool traced_;
  std::map<std::string, double> values_;
};

// ---- Statistics -------------------------------------------------------------

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
/// Process user + system CPU seconds so far.
double CpuSeconds();
/// Peak resident set size of the process so far, in MiB.
double PeakRssMb();
/// Deterministic per-slot randomness: slot `slot` of stream `stream` under
/// `seed` always draws the same value, whichever thread asks.
uint64_t SlotRandom(uint64_t seed, uint64_t stream, uint64_t slot);
double SlotUniform(uint64_t seed, uint64_t stream, uint64_t slot);

// ---- Host speed -------------------------------------------------------------

/// Wall seconds of a fixed CPU kernel that does not depend on the code
/// under test: 10th percentile over repetitions on kThreadBudget threads
/// running it at once. Reported beside the results so that a run on a
/// slowed host can be recognised; the results are not scaled by it.
double ProbeKernelSeconds();

// ---- Serving stack ----------------------------------------------------------

/// One workload class stood up the way it is served: annotated corpus,
/// sharded index saved and reloaded zero-copy, engine, service, and (wire
/// workloads) a TCP server in front of the service.
struct ClassUnit {
  replay::Workload workload;
  std::unique_ptr<koko::ShardedKokoIndex> index;
  std::unique_ptr<koko::Engine> engine;
  std::unique_ptr<koko::QueryService> service;
  /// Declared last: stops before the service it borrows goes away.
  std::unique_ptr<koko::net::KokoServer> server;
  uint64_t image_bytes = 0;
};

struct StackOptions {
  std::vector<replay::WorkloadClass> classes;
  int scale = 1;
  size_t queries_per_class = 8;
  koko::QueryService::Options service;
  bool serve_wire = false;
};

/// Wall seconds of each set-up stage, summed over the stack's classes.
struct SetupTimes {
  double annotate_s = 0;  ///< BuildWorkload: corpus generation + annotation
  double build_s = 0;     ///< ShardedKokoIndex::Build
  double save_s = 0;      ///< Save
  double load_s = 0;      ///< Load(kMap)
  double total_s = 0;     ///< Everything up to a ready service/server
};

struct Stack {
  koko::Pipeline pipeline;
  koko::EmbeddingModel embeddings;
  std::vector<std::unique_ptr<ClassUnit>> units;

  size_t Sentences() const;
  uint64_t ImageBytes() const;
};

/// Stands the stack up `kSetupRepeats` times (each copy is torn down
/// before the next is built) and keeps the last. `times` receives the
/// per-stage medians over the repeats.
koko::Result<std::unique_ptr<Stack>> SetUpStack(const StackOptions& options,
                                                const Args& args,
                                                SetupTimes* times);

// ---- Requests and reference digests ------------------------------------------

/// One request as the load generator issues it. Requests that must return
/// identical rows share a `key`.
struct Request {
  size_t cls = 0;
  const koko::Query* query = nullptr;
  std::shared_ptr<const koko::Query> owned;  ///< set for generated variants
  std::shared_ptr<const std::string> owned_text;
  const std::string* text = nullptr;         ///< query text (the wire form)
  size_t max_rows = 0;                       ///< 0 = unlimited
  bool first_seen = false;
  uint64_t key = 0;
};

/// Outcome of one issued request.
struct Sample {
  uint64_t key = 0;
  uint64_t digest = 0;
  double latency_ms = 0;
  bool ok = false;
  uint64_t candidates = 0;
  uint64_t scanned = 0;
  double done_s = 0;  ///< completion, seconds after the window started
  double cpu_s = 0;   ///< process CPU seconds at completion
};

/// Requests per group of a measured window: enough for ten samples
/// beyond each group's p99.
inline constexpr size_t kGroupRequests = 1000;

/// Timing metrics of a measured window, each taken over consecutive groups
/// of kGroupRequests requests (in completion order) and read at the
/// least-disturbed quarter of the groups: the kGroupQuantile of latencies
/// and CPU per request, the 1 - kGroupQuantile of throughput. On a shared
/// 4-vCPU KVM host, throughput dropped by up to 1.4x for 10-20 s at a time
/// within one run; only disturbance, never the code under test, makes a
/// group slower than its neighbours.
inline constexpr double kGroupQuantile = 0.25;

struct WindowStats {
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double cpu_ms_per_query = 0;
  size_t groups = 0;
};
WindowStats GroupFigures(std::vector<Sample> samples, double cpu_start_s);

/// Expected row digests, computed from a serial `Engine::Execute` with
/// default EngineOptions (one thread, no shared caches) and the request's
/// row cap. Computed after the timed window for every key it issued.
class ReferenceBook {
 public:
  ReferenceBook(const Stack* stack, bool corrupt_first)
      : stack_(stack), corrupt_first_(corrupt_first) {}

  /// Records a request whose reference may be needed later.
  void Note(const Request& request);
  /// Computes every noted, not-yet-known reference on up to
  /// kThreadBudget threads. Returns false when a reference run failed.
  bool Resolve();
  /// Expected digest of a resolved key.
  uint64_t Expected(uint64_t key) const;
  /// Counts samples whose digest does not match (or that failed).
  uint64_t CountFailures(const std::vector<Sample>& samples) const;

 private:
  const Stack* stack_;
  bool corrupt_first_;
  bool corrupted_ = false;
  std::map<uint64_t, Request> pending_;
  std::map<uint64_t, uint64_t> digests_;
};

uint64_t RequestKey(size_t cls, uint64_t query_id, size_t max_rows);

/// A workload's request stream: slot `n` always maps to the same request.
using RequestMix = std::function<Request(uint64_t slot)>;

// ---- Tracing ----------------------------------------------------------------

/// Spans of the traced run, kept in memory and written out at the end.
class Tracer {
 public:
  struct Span {
    uint64_t request = 0;
    std::string name;
    double start_us = 0;
    double end_us = 0;
    int parent = -1;
  };

  Tracer() : origin_(Clock::now()) {}

  int Begin(uint64_t request, const std::string& name, int parent);
  void End(int span);
  /// A span whose duration is known but whose interval is not (engine
  /// phases read from QueryResult::phases): laid end to end from `cursor`.
  int AddDerived(uint64_t request, const std::string& name, int parent,
                 double* cursor_us, double duration_us);
  double NowUs() const;
  const Span& span(int i) const { return spans_[static_cast<size_t>(i)]; }

  /// Self time (span minus the union of its children's intervals) summed
  /// per span name.
  std::map<std::string, double> SelfTimesUs() const;
  /// Total time summed per span name.
  std::map<std::string, double> TotalTimesUs() const;
  /// Wall time of root spans and the part of it their descendants cover.
  void RootCoverage(double* root_us, double* attributed_us) const;

  bool WriteJsonLines(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, uint64_t request, const std::string& name,
             int parent)
      : tracer_(tracer), id_(tracer->Begin(request, name, parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Counts gathered over a traced pass.
struct TracedCounts {
  uint64_t requests = 0;
  uint64_t candidates = 0;
  uint64_t full_candidates = 0;
  uint64_t full_answer_sids = 0;
};

/// Per-layer cost split of one request, traced by calling each layer's
/// public function in sequence: parse, compile, per-shard plan and DPLI,
/// serial execute (phases from QueryResult::phases), then the aggregate,
/// embed and regex calls over the returned rows. The engine repeats plan
/// and DPLI internally, so the spans split cost; they are not the
/// request's serving latency.
class LayerTracer {
 public:
  /// Runs inside the request span after the layer calls (the wire
  /// workload adds its network spans here).
  using TraceHook = std::function<void(int root)>;

  LayerTracer(const Stack* stack, Tracer* tracer);
  ~LayerTracer();
  /// Traces `request` as request `id` under a new root span; the sample
  /// carries the digest of the rows the serial execution produced.
  Sample Trace(const Request& request, uint64_t id, TracedCounts* counts,
               const TraceHook& hook = nullptr);

 private:
  struct PerClass;
  koko::Result<koko::QueryResult> TraceLayers(const Request& request,
                                              uint64_t id, int parent,
                                              TracedCounts* counts);

  const Stack* stack_;
  Tracer* tracer_;
  std::vector<std::unique_ptr<PerClass>> per_class_;
};

/// Emits the layer metrics derived from a finished traced pass.
void ReportLayerTimes(const Tracer& tracer, const TracedCounts& counts,
                      Report* report);

// ---- Wire -------------------------------------------------------------------

/// One connection per (client, class server): conns[client][class].
using Connections = std::vector<std::vector<koko::net::KokoClient>>;

koko::Result<Connections> Connect(const Stack& stack, size_t clients);
/// Sends `request` on the client's connection to its class server.
Sample IssueOverWire(Connections* conns, size_t client, const Request& request);
uint64_t ServerProtocolErrors(const Stack& stack);

/// Open-loop Poisson traffic at a fixed rate, then a rate ladder, over the
/// wire; reports the open.*, loadgen.*, serve.* and batching figures.
void MeasureOpenLoop(const Stack& stack, Connections* conns,
                     const RequestMix& mix, const Args& args,
                     ReferenceBook* references, std::vector<Sample>* all,
                     Report* report);

/// The network spans of a traced request: the same request through the
/// service in process (serve.run) and over the wire (net.query), then the
/// row codec on the response rows (net.encode, net.decode).
void TraceWire(const Stack& stack, Connections* conns, const Request& request,
               uint64_t id, int parent, Tracer* tracer, bool* ok,
               std::vector<koko::ResultRow>* wire_rows, double* response_bytes);

// ---- Workloads ---------------------------------------------------------------

int RunTreeScan(const Args& args);
int RunEvidenceMix(const Args& args);
int RunWireClosed(const Args& args);

/// Emits index_bytes_per_sentence / input.<class>.* records.
void ReportStackInputs(const Stack& stack, Report* report, bool per_class);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
