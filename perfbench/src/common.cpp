#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "bench.h"
#include "koko/compile.h"
#include "koko/parser.h"
#include "koko/planner.h"
#include "koko/printer.h"
#include "regex/regex.h"
#include "util/hash.h"

namespace perfbench {

using namespace koko;

// ---- Metric sets ---------------------------------------------------------------

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"qps", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"cpu_ms_per_query", "ms"},
    {"max_rate_qps", "1/s"},
    {"index_bytes_per_sentence", "B"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"nlp.annotate_s", "s"},
    {"index.build_s", "s"},
    {"index.save_s", "s"},
    {"index.load_s", "s"},
    {"index.image_bytes", "B"},
    {"koko.parse_us", "us"},
    {"koko.compile_us", "us"},
    {"koko.plan_us", "us"},
    {"index.dpli_us", "us"},
    {"index.candidates", "count"},
    {"index.candidate_yield", "ratio"},
    {"engine.exec_ms", "ms"},
    {"engine.load_article_ms", "ms"},
    {"engine.extract_ms", "ms"},
    {"engine.gsp_ms", "ms"},
    {"engine.satisfying_ms", "ms"},
    {"engine.scanned_frac", "ratio"},
    {"aggregate.descriptor_us", "us"},
    {"aggregate.regex_us", "us"},
    {"aggregate.other_us", "us"},
    {"embed.expand_us", "us"},
    {"regex.compile_us", "us"},
    {"regex.match_us", "us"},
    {"score_cache.hit_rate", "ratio"},
    {"plan_cache.hit_rate", "ratio"},
    {"serve.waiting_mean", "count"},
    {"serve.wait_ms", "ms"},
    {"serve.peak_inflight", "count"},
    {"serve.rejected", "count"},
    {"net.overhead_ms", "ms"},
    {"net.encode_us", "us"},
    {"net.decode_us", "us"},
    {"net.response_bytes", "B"},
    {"net.batch_follower_frac", "ratio"},
    {"net.protocol_errors", "count"},
    {"open.latency_p50_ms", "ms"},
    {"open.latency_p99_ms", "ms"},
    {"open.max_rate_qps", "1/s"},
    {"loadgen.lag_p99_ms", "ms"},
    {"loadgen.valid", "bool"},
    {"host.kernel_ms", "ms"},
    {"trace.requests", "count"},
    {"trace.attributed_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
    {"input.first_seen_frac", "ratio"},
    {"input.topk_frac", "ratio"},
    {"input.duplicate_frac", "ratio"},
    // Per class: the workload's input sizes.
    {"input.fig3_cafe.sentences", "count"},
    {"input.fig3_cafe.documents", "count"},
    {"input.fig3_cafe.image_bytes", "B"},
    {"input.fig4_wnut.sentences", "count"},
    {"input.fig4_wnut.documents", "count"},
    {"input.fig4_wnut.image_bytes", "B"},
    {"input.fig5_descriptors.sentences", "count"},
    {"input.fig5_descriptors.documents", "count"},
    {"input.fig5_descriptors.image_bytes", "B"},
    {"input.fig7_happydb.sentences", "count"},
    {"input.fig7_happydb.documents", "count"},
    {"input.fig7_happydb.image_bytes", "B"},
    {"input.fig8_wiki.sentences", "count"},
    {"input.fig8_wiki.documents", "count"},
    {"input.fig8_wiki.image_bytes", "B"},
    {"input.table1_gsp.sentences", "count"},
    {"input.table1_gsp.documents", "count"},
    {"input.table1_gsp.image_bytes", "B"},
};

// ---- Report ---------------------------------------------------------------------

void Report::Set(const std::string& name, double value) {
  const auto& specs = traced_ ? kPerLayer : kEndToEnd;
  for (const MetricSpec& spec : specs) {
    if (name == spec.name) {
      values_[name] = value;
      return;
    }
  }
  std::fprintf(stderr, "perfbench: undeclared metric %s\n", name.c_str());
  std::abort();
}

void Report::Print(bool correct, uint64_t attempted, uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : traced_ ? kPerLayer : kEndToEnd) {
    auto it = values_.find(spec.name);
    double value = it == values_.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) value = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (!first) out += ", ";
    first = false;
    out += "\"";
    out += spec.name;
    out += "\": {\"value\": ";
    out += buf;
    out += ", \"unit\": \"";
    out += spec.unit;
    out += "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ---- Statistics ------------------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least q of the sample at or
  // below it.
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

WindowStats GroupFigures(std::vector<Sample> samples, double cpu_start_s) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.done_s < b.done_s; });
  const size_t groups = std::max<size_t>(1, samples.size() / kGroupRequests);
  const size_t per_group = samples.size() / groups;
  std::vector<double> qps, p50, p99, cpu;
  double prev_done = 0, prev_cpu = cpu_start_s;
  for (size_t g = 0; g < groups; ++g) {
    const size_t begin = g * per_group;
    const size_t end = g + 1 == groups ? samples.size() : begin + per_group;
    std::vector<double> latencies;
    for (size_t i = begin; i < end; ++i) latencies.push_back(samples[i].latency_ms);
    const double n = static_cast<double>(end - begin);
    const Sample& last = samples[end - 1];
    qps.push_back(n / (last.done_s - prev_done));
    cpu.push_back((last.cpu_s - prev_cpu) * 1e3 / n);
    p50.push_back(Quantile(latencies, 0.50));
    p99.push_back(Quantile(latencies, 0.99));
    prev_done = last.done_s;
    prev_cpu = last.cpu_s;
  }
  WindowStats stats;
  stats.qps = Quantile(qps, 1 - kGroupQuantile);
  stats.p50_ms = Quantile(p50, kGroupQuantile);
  stats.p99_ms = Quantile(p99, kGroupQuantile);
  stats.cpu_ms_per_query = Quantile(cpu, kGroupQuantile);
  stats.groups = groups;
  return stats;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t SlotRandom(uint64_t seed, uint64_t stream, uint64_t slot) {
  return Mix64(HashCombine(HashCombine(Mix64(seed), Mix64(stream + 1)),
                           Mix64(slot)));
}

double SlotUniform(uint64_t seed, uint64_t stream, uint64_t slot) {
  return static_cast<double>(SlotRandom(seed, stream, slot) >> 11) *
         (1.0 / 9007199254740992.0);
}

// ---- Host speed -----------------------------------------------------------------

namespace {

/// Fixed work: inserts into and lookups in an open-addressing hash table
/// bigger than the L2 cache, then a sort, over pseudo-random keys: the
/// integer, branchy, cache-missing mix of the engine's hot loops. It
/// allocates nothing while timed, so the process's heap does not matter.
struct CalibrationKernel {
  static constexpr size_t kKeys = 1 << 14;
  static constexpr size_t kSlots = 1 << 17;
  std::vector<uint64_t> keys = std::vector<uint64_t>(kKeys);
  std::vector<uint64_t> slots = std::vector<uint64_t>(kSlots);

  size_t Find(uint64_t key) const {
    size_t h = Mix64(key) & (kSlots - 1);
    while (slots[h] != 0 && slots[h] != key) h = (h + 1) & (kSlots - 1);
    return h;
  }

  uint64_t Run() {
    for (size_t i = 0; i < kKeys; ++i) keys[i] = Mix64(i + 1) | 1;
    std::fill(slots.begin(), slots.end(), 0);
    for (uint64_t key : keys) slots[Find(key)] = key;
    uint64_t found = 0;
    for (uint64_t key : keys) {
      found += slots[Find(key)] == key ? 1 : 0;
      found += slots[Find(key ^ 2)] != 0 ? 1 : 0;
    }
    std::sort(keys.begin(), keys.end());
    return found + keys[kKeys / 2];
  }
};

}  // namespace

double ProbeKernelSeconds() {
  constexpr int kReps = 60;
  std::vector<std::vector<double>> per_thread(kThreadBudget);
  std::atomic<uint64_t> sink{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreadBudget; ++t) {
    threads.emplace_back([&, t]() {
      CalibrationKernel kernel;
      sink += kernel.Run();  // untimed: faults the buffers in
      for (int r = 0; r < kReps; ++r) {
        const auto start = Clock::now();
        sink += kernel.Run();
        per_thread[t].push_back(SecondsSince(start));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<double> all;
  for (const auto& v : per_thread) all.insert(all.end(), v.begin(), v.end());
  if (sink.load() == 0) std::fprintf(stderr, "perfbench: empty kernel\n");
  // A low quantile: the CPU's speed, without repetitions that another
  // process interrupted.
  return Quantile(all, 0.1);
}

// ---- Serving stack ----------------------------------------------------------------

size_t Stack::Sentences() const {
  size_t n = 0;
  for (const auto& unit : units) n += unit->workload.corpus.NumSentences();
  return n;
}

uint64_t Stack::ImageBytes() const {
  uint64_t n = 0;
  for (const auto& unit : units) n += unit->image_bytes;
  return n;
}

namespace {

Result<std::unique_ptr<Stack>> SetUpOnce(const StackOptions& options,
                                         const Args& args, SetupTimes* times) {
  const auto start = Clock::now();
  auto stack = std::make_unique<Stack>();
  const Pipeline& pipeline = stack->pipeline;
  for (replay::WorkloadClass cls : options.classes) {
    auto unit = std::make_unique<ClassUnit>();
    replay::WorkloadOptions workload_options;
    workload_options.scale = options.scale;
    workload_options.queries_per_class = options.queries_per_class;
    // The corpora and query catalogs are the generator's fixed ones (seed
    // 0, as the golden files use); --seed drives the request stream. A
    // catalog drawn per seed holds only ~100 synthetic queries, and its
    // median query cost moved by 17-39% from seed to seed.
    workload_options.seed = 0;

    auto t = Clock::now();
    auto workload = replay::BuildWorkload(cls, pipeline, workload_options);
    if (!workload.ok()) return workload.status();
    unit->workload = std::move(*workload);
    times->annotate_s += SecondsSince(t);

    t = Clock::now();
    auto built = ShardedKokoIndex::Build(unit->workload.corpus, kIndexShards);
    times->build_s += SecondsSince(t);

    const std::string path =
        args.workdir + "/perfbench_" + unit->workload.name + ".idx";
    t = Clock::now();
    Status saved = built->Save(path);
    times->save_s += SecondsSince(t);
    if (!saved.ok()) return saved;
    built.reset();

    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f != nullptr) {
      std::fseek(f, 0, SEEK_END);
      unit->image_bytes = static_cast<uint64_t>(std::ftell(f));
      std::fclose(f);
    }

    t = Clock::now();
    ShardedKokoIndex::LoadOptions load;
    load.mode = LoadMode::kMap;
    auto loaded = ShardedKokoIndex::Load(path, load);
    times->load_s += SecondsSince(t);
    // Unlinked while mapped: the mapping outlives the file.
    std::remove(path.c_str());
    if (!loaded.ok()) return loaded.status();
    unit->index = std::move(*loaded);

    unit->engine = std::make_unique<Engine>(&unit->workload.corpus,
                                            unit->index.get(),
                                            &stack->embeddings,
                                            &pipeline.recognizer());
    unit->service = std::make_unique<QueryService>(
        unit->engine.get(), options.service, kIndexShards);
    if (options.serve_wire) {
      unit->server = std::make_unique<net::KokoServer>(
          unit->service.get(), net::KokoServer::Options());
      Status started = unit->server->Start();
      if (!started.ok()) return started;
    }
    stack->units.push_back(std::move(unit));
  }
  times->total_s = SecondsSince(start);
  return stack;
}

}  // namespace

Result<std::unique_ptr<Stack>> SetUpStack(const StackOptions& options,
                                          const Args& args, SetupTimes* times) {
  std::vector<SetupTimes> runs;
  std::unique_ptr<Stack> kept;
  for (int i = 0; i < kSetupRepeats; ++i) {
    kept.reset();  // one resident copy at a time
    SetupTimes run;
    auto stack = SetUpOnce(options, args, &run);
    if (!stack.ok()) return stack.status();
    kept = std::move(*stack);
    runs.push_back(run);
  }
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& r : runs) v.push_back(r.*field);
    return Median(v);
  };
  times->annotate_s = median_of(&SetupTimes::annotate_s);
  times->build_s = median_of(&SetupTimes::build_s);
  times->save_s = median_of(&SetupTimes::save_s);
  times->load_s = median_of(&SetupTimes::load_s);
  times->total_s = median_of(&SetupTimes::total_s);
  return kept;
}

void ReportStackInputs(const Stack& stack, Report* report, bool per_class) {
  if (!per_class) {
    report->Set("index_bytes_per_sentence",
                static_cast<double>(stack.ImageBytes()) /
                    static_cast<double>(stack.Sentences()));
    return;
  }
  report->Set("index.image_bytes", static_cast<double>(stack.ImageBytes()));
  for (const auto& unit : stack.units) {
    const std::string prefix = "input." + unit->workload.name + ".";
    report->Set(prefix + "sentences",
                static_cast<double>(unit->workload.corpus.NumSentences()));
    report->Set(prefix + "documents",
                static_cast<double>(unit->workload.corpus.NumDocs()));
    report->Set(prefix + "image_bytes", static_cast<double>(unit->image_bytes));
  }
}

// ---- Reference digests --------------------------------------------------------------

uint64_t RequestKey(size_t cls, uint64_t query_id, size_t max_rows) {
  return HashCombine(HashCombine(Mix64(cls + 1), Mix64(query_id)),
                     Mix64(max_rows));
}

void ReferenceBook::Note(const Request& request) {
  if (digests_.count(request.key) == 0) pending_.emplace(request.key, request);
}

bool ReferenceBook::Resolve() {
  std::vector<const std::pair<const uint64_t, Request>*> todo;
  for (const auto& entry : pending_) todo.push_back(&entry);
  std::vector<uint64_t> out(todo.size(), 0);
  std::atomic<size_t> cursor{0};
  std::atomic<bool> ok{true};
  auto worker = [&]() {
    for (;;) {
      const size_t i = cursor.fetch_add(1);
      if (i >= todo.size()) return;
      const Request& request = todo[i]->second;
      EngineOptions reference;  // defaults: serial, no shared caches
      if (request.max_rows != 0) reference.max_rows = request.max_rows;
      auto result = stack_->units[request.cls]->engine->Execute(
          *request.query, reference);
      if (!result.ok()) {
        std::fprintf(stderr, "perfbench: reference run failed: %s\n",
                     result.status().ToString().c_str());
        ok = false;
        continue;
      }
      out[i] = replay::RowDigest(*result);
    }
  };
  std::vector<std::thread> threads;
  const size_t n = std::min(kThreadBudget, todo.size());
  for (size_t t = 0; t < n; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  for (size_t i = 0; i < todo.size(); ++i) {
    uint64_t digest = out[i];
    if (corrupt_first_ && !corrupted_) {
      digest ^= 1;  // self-test: this key must now count as failed
      corrupted_ = true;
    }
    digests_[todo[i]->first] = digest;
  }
  pending_.clear();
  return ok.load();
}

uint64_t ReferenceBook::Expected(uint64_t key) const {
  auto it = digests_.find(key);
  return it == digests_.end() ? 0 : it->second;
}

uint64_t ReferenceBook::CountFailures(const std::vector<Sample>& samples) const {
  uint64_t failures = 0;
  for (const Sample& s : samples) {
    if (!s.ok || digests_.count(s.key) == 0 || s.digest != Expected(s.key)) {
      ++failures;
    }
  }
  return failures;
}

// ---- Tracer ---------------------------------------------------------------------------

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

int Tracer::Begin(uint64_t request, const std::string& name, int parent) {
  Span span;
  span.request = request;
  span.name = name;
  span.parent = parent;
  span.start_us = NowUs();
  span.end_us = span.start_us;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int span) { spans_[static_cast<size_t>(span)].end_us = NowUs(); }

int Tracer::AddDerived(uint64_t request, const std::string& name, int parent,
                       double* cursor_us, double duration_us) {
  Span span;
  span.request = request;
  span.name = name;
  span.parent = parent;
  span.start_us = *cursor_us;
  span.end_us = *cursor_us + duration_us;
  *cursor_us = span.end_us;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

namespace {

/// Length of the union of `intervals`, each clipped to [lo, hi].
double CoveredUs(std::vector<std::pair<double, double>> intervals, double lo,
                 double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0;
  double cur_lo = 0, cur_hi = -1;
  bool open = false;
  for (auto [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
    } else {
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
  }
  if (open) covered += cur_hi - cur_lo;
  return covered;
}

std::vector<std::vector<int>> ChildrenOf(const std::vector<Tracer::Span>& spans) {
  std::vector<std::vector<int>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<size_t>(spans[i].parent)].push_back(
          static_cast<int>(i));
    }
  }
  return children;
}

}  // namespace

std::map<std::string, double> Tracer::SelfTimesUs() const {
  std::map<std::string, double> self;
  const auto children = ChildrenOf(spans_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<double, double>> kids;
    for (int c : children[i]) {
      kids.emplace_back(spans_[static_cast<size_t>(c)].start_us,
                        spans_[static_cast<size_t>(c)].end_us);
    }
    self[s.name] +=
        (s.end_us - s.start_us) - CoveredUs(std::move(kids), s.start_us, s.end_us);
  }
  return self;
}

std::map<std::string, double> Tracer::TotalTimesUs() const {
  std::map<std::string, double> total;
  for (const Span& s : spans_) total[s.name] += s.end_us - s.start_us;
  return total;
}

void Tracer::RootCoverage(double* root_us, double* attributed_us) const {
  const auto children = ChildrenOf(spans_);
  *root_us = 0;
  *attributed_us = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= 0) continue;
    std::vector<std::pair<double, double>> kids;
    for (int c : children[i]) {
      kids.emplace_back(spans_[static_cast<size_t>(c)].start_us,
                        spans_[static_cast<size_t>(c)].end_us);
    }
    *root_us += s.end_us - s.start_us;
    *attributed_us += CoveredUs(std::move(kids), s.start_us, s.end_us);
  }
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"id\": %zu, \"request\": %llu, \"name\": \"%s\", "
                  "\"start_us\": %.3f, \"end_us\": %.3f, \"parent\": %d}\n",
                  i, static_cast<unsigned long long>(s.request), s.name.c_str(),
                  s.start_us, s.end_us, s.parent);
    out << buf;
  }
  return static_cast<bool>(out);
}

// ---- Layer tracer ------------------------------------------------------------------------

namespace {

const char* AggregateSpanName(SatCondition::Kind kind) {
  switch (kind) {
    case SatCondition::Kind::kDescriptorLeft:
    case SatCondition::Kind::kDescriptorRight:
      return "aggregate.descriptor";
    case SatCondition::Kind::kStrMatches:
      return "aggregate.regex";
    default:
      return "aggregate.other";
  }
}

bool IsDescriptor(SatCondition::Kind kind) {
  return kind == SatCondition::Kind::kDescriptorLeft ||
         kind == SatCondition::Kind::kDescriptorRight;
}

int OutputColumn(const CompiledQuery& cq, const std::string& var) {
  for (size_t i = 0; i < cq.outputs.size(); ++i) {
    if (cq.outputs[i].var == var) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

/// Per-class objects the traced calls reuse across requests: descriptor
/// expansions memoised by the aggregator stay warm, as the serving path's
/// do, so aggregate spans time scoring rather than expansion (expansion is
/// timed on its own through DescriptorExpander).
struct LayerTracer::PerClass {
  PerClass(const EmbeddingModel* model, const EntityRecognizer* recognizer)
      : aggregator(model, recognizer, Aggregator::Options()), expander(model) {}
  Aggregator aggregator;
  DescriptorExpander expander;
};

LayerTracer::LayerTracer(const Stack* stack, Tracer* tracer)
    : stack_(stack), tracer_(tracer) {
  for (size_t i = 0; i < stack->units.size(); ++i) {
    per_class_.push_back(std::make_unique<PerClass>(
        &stack->embeddings, &stack->pipeline.recognizer()));
  }
}

LayerTracer::~LayerTracer() = default;

Sample LayerTracer::Trace(const Request& request, uint64_t id,
                          TracedCounts* counts, const TraceHook& hook) {
  Sample sample;
  sample.key = request.key;
  const int root = tracer_->Begin(id, "request", -1);
  Result<QueryResult> result = TraceLayers(request, id, root, counts);
  if (result.ok() && hook) hook(root);
  tracer_->End(root);
  if (!result.ok()) return sample;
  // Bookkeeping stays outside the request span.
  sample.ok = true;
  sample.digest = replay::RowDigest(*result);
  sample.candidates = result->candidate_sentences;
  sample.scanned = result->scanned_candidates;
  if (request.max_rows == 0) {
    std::vector<uint32_t> sids;
    for (const ResultRow& row : result->rows) sids.push_back(row.sid);
    std::sort(sids.begin(), sids.end());
    counts->full_answer_sids += static_cast<uint64_t>(
        std::unique(sids.begin(), sids.end()) - sids.begin());
  }
  return sample;
}

Result<QueryResult> LayerTracer::TraceLayers(const Request& request,
                                             uint64_t id, int parent,
                                             TracedCounts* counts) {
  const ClassUnit& unit = *stack_->units[request.cls];
  PerClass& pc = *per_class_[request.cls];
  const std::string& text = *request.text;
  {
    ScopedSpan span(tracer_, id, "koko.parse", parent);
    auto parsed = ParseQuery(text);
    if (!parsed.ok()) return parsed.status();
  }
  // Compile from the request's own AST: the parse above is timed on the
  // text the wire would carry, the execution below must run exactly the
  // request the reference was computed for.
  Result<CompiledQuery> compiled = Status::Internal("not compiled");
  {
    ScopedSpan span(tracer_, id, "koko.compile", parent);
    compiled = CompileQuery(*request.query);
  }
  if (!compiled.ok()) return compiled.status();
  const CompiledQuery& cq = *compiled;

  uint64_t candidates = 0;
  for (size_t s = 0; s < unit.index->num_shards(); ++s) {
    const KokoIndex& shard = unit.index->shard(s);
    std::shared_ptr<const QueryPlan> plan;
    {
      ScopedSpan span(tracer_, id, "koko.plan", parent);
      plan = BuildQueryPlan(shard, cq, PlannerOptions());
    }
    ScopedSpan span(tracer_, id, "index.dpli", parent);
    PlannedCandidates planned = CollectPlannedCandidates(shard, cq, *plan);
    const auto& range = unit.index->shard_range(s);
    candidates += planned.pruned ? planned.sids.size() : range.end - range.begin;
  }

  EngineOptions options;  // serial, no shared caches
  if (request.max_rows != 0) options.max_rows = request.max_rows;
  const int exec = tracer_->Begin(id, "engine.exec", parent);
  Result<QueryResult> result = unit.engine->ExecuteCompiled(cq, options);
  tracer_->End(exec);
  if (!result.ok()) return result;
  {
    // Engine phases carry durations only; lay them end to end inside the
    // exec span (GSP runs inside extract).
    const PhaseStats& phases = result->phases;
    double cursor = tracer_->span(exec).start_us;
    tracer_->AddDerived(id, "engine.dpli", exec, &cursor,
                        phases.Get("DPLI") * 1e6);
    tracer_->AddDerived(id, "engine.load_article", exec, &cursor,
                        phases.Get("LoadArticle") * 1e6);
    double gsp_cursor = cursor;
    const int extract = tracer_->AddDerived(id, "engine.extract", exec, &cursor,
                                            phases.Get("extract") * 1e6);
    tracer_->AddDerived(id, "engine.gsp", extract, &gsp_cursor,
                        std::min(phases.Get("GSP"), phases.Get("extract")) * 1e6);
    tracer_->AddDerived(id, "engine.satisfying", exec, &cursor,
                        phases.Get("satisfying") * 1e6);
  }
  ++counts->requests;
  counts->candidates += candidates;
  if (request.max_rows == 0) counts->full_candidates += candidates;
  if (cq.satisfying.empty() && cq.excluding.empty()) return result;

  // Aggregate, embed and regex layers, called over each returned row's
  // distinct (doc, value).
  auto pairs_for = [&](const std::string& var) {
    std::vector<std::pair<uint32_t, std::string>> pairs;
    const int col = OutputColumn(cq, var);
    if (col < 0) return pairs;
    for (const ResultRow& row : result->rows) {
      pairs.emplace_back(row.doc, row.values[static_cast<size_t>(col)]);
    }
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    return pairs;
  };
  double sink = 0;
  auto regex_calls = [&](const SatCondition& cond,
                         const std::vector<std::pair<uint32_t, std::string>>& pairs) {
    if (cond.kind != SatCondition::Kind::kStrMatches) return;
    Result<Regex> regex = Status::Internal("not compiled");
    {
      ScopedSpan span(tracer_, id, "regex.compile", parent);
      regex = Regex::Compile(cond.text);
    }
    if (!regex.ok()) return;
    ScopedSpan span(tracer_, id, "regex.match", parent);
    for (const auto& pair : pairs) sink += regex->FullMatch(pair.second) ? 1 : 0;
  };
  for (const SatisfyingClause& clause : cq.satisfying) {
    const auto pairs = pairs_for(clause.var);
    for (const SatCondition& cond : clause.conditions) {
      if (IsDescriptor(cond.kind)) {
        ScopedSpan span(tracer_, id, "embed.expand", parent);
        sink += static_cast<double>(pc.expander.Expand(cond.text).size());
      }
      {
        ScopedSpan span(tracer_, id, AggregateSpanName(cond.kind), parent);
        for (const auto& [doc, value] : pairs) {
          sink += pc.aggregator.ConditionScore(unit.workload.corpus.docs[doc],
                                               value, cond);
        }
      }
      regex_calls(cond, pairs);
    }
  }
  for (const SatCondition& cond : cq.excluding) {
    const auto pairs = pairs_for(cond.var);
    {
      ScopedSpan span(tracer_, id, AggregateSpanName(cond.kind), parent);
      for (const auto& [doc, value] : pairs) {
        sink += pc.aggregator.Excluded(unit.workload.corpus.docs[doc], value, cond)
                    ? 1
                    : 0;
      }
    }
    regex_calls(cond, pairs);
  }
  if (sink < 0) std::fprintf(stderr, "%f\n", sink);  // keeps the calls live
  return result;
}

/// Layer spans must cover at least this share of each traced request's
/// wall time; the rest is benchmark glue between the calls.
constexpr double kMinAttributed = 0.95;

void ReportLayerTimes(const Tracer& tracer, const TracedCounts& counts,
                      Report* report) {
  if (counts.requests == 0) return;
  const double n = static_cast<double>(counts.requests);
  const auto self = tracer.SelfTimesUs();
  const auto total = tracer.TotalTimesUs();
  auto get = [](const std::map<std::string, double>& m, const char* name) {
    auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second;
  };
  report->Set("koko.parse_us", get(self, "koko.parse") / n);
  report->Set("koko.compile_us", get(self, "koko.compile") / n);
  report->Set("koko.plan_us", get(self, "koko.plan") / n);
  report->Set("index.dpli_us", get(self, "index.dpli") / n);
  report->Set("index.candidates", static_cast<double>(counts.candidates) / n);
  if (counts.full_candidates > 0) {
    report->Set("index.candidate_yield",
                static_cast<double>(counts.full_answer_sids) /
                    static_cast<double>(counts.full_candidates));
  }
  report->Set("engine.exec_ms", get(total, "engine.exec") / n / 1e3);
  report->Set("engine.load_article_ms",
              get(self, "engine.load_article") / n / 1e3);
  report->Set("engine.extract_ms", get(self, "engine.extract") / n / 1e3);
  report->Set("engine.gsp_ms", get(self, "engine.gsp") / n / 1e3);
  report->Set("engine.satisfying_ms", get(self, "engine.satisfying") / n / 1e3);
  report->Set("aggregate.descriptor_us", get(self, "aggregate.descriptor") / n);
  report->Set("aggregate.regex_us", get(self, "aggregate.regex") / n);
  report->Set("aggregate.other_us", get(self, "aggregate.other") / n);
  report->Set("embed.expand_us", get(self, "embed.expand") / n);
  report->Set("regex.compile_us", get(self, "regex.compile") / n);
  report->Set("regex.match_us", get(self, "regex.match") / n);
  report->Set("net.encode_us", get(self, "net.encode") / n);
  report->Set("net.decode_us", get(self, "net.decode") / n);
  if (get(total, "net.query") > 0) {
    report->Set("net.overhead_ms",
                (get(total, "net.query") - get(total, "serve.run")) / n / 1e3);
  }
  double root_us = 0, attributed_us = 0;
  tracer.RootCoverage(&root_us, &attributed_us);
  const double attributed = root_us > 0 ? attributed_us / root_us : 0.0;
  if (attributed < kMinAttributed) {
    std::fprintf(stderr,
                 "perfbench: layer spans cover only %.3f of traced request "
                 "wall time (tolerance: at least %.2f)\n",
                 attributed, kMinAttributed);
  }
  report->Set("trace.requests", n);
  report->Set("trace.attributed_frac", attributed);
}

}  // namespace perfbench
