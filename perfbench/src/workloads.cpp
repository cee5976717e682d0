// The benchmark's three workloads. Each is a closed loop: kClients
// threads each issue the next slot's request as soon as the previous one
// returns. tree_scan and evidence_mix call QueryService::Run(query,
// overrides, sink) in process; wire_closed sends the same kind of request
// over TCP to one KokoServer per class.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>
#include <unordered_set>

#include "bench.h"
#include "koko/printer.h"

namespace perfbench {

using namespace koko;

namespace {

/// Client threads of every closed loop. In process, the service pool gets
/// the rest of the thread budget; over the wire, the services run serially
/// on their connection threads, so client and server threads busy at once
/// stay within the budget too.
constexpr size_t kClients = 2;
constexpr size_t kWireClients = 2;
/// Row caps of top-k requests.
constexpr size_t kTreeTopK = 10;
constexpr size_t kWireTopK = 5;

/// Stated input shares (measured shares are reported beside them).
constexpr double kTreeTopKShare = 0.7;
constexpr double kFirstSeenShare = 0.1;
constexpr double kWireTopKShare = 0.25;

struct ServiceTotals {
  uint64_t score_hits = 0, score_misses = 0;
  uint64_t plan_hits = 0, plan_misses = 0;
  uint64_t rejected = 0, peak_inflight = 0;
};

ServiceTotals Totals(const Stack& stack) {
  ServiceTotals t;
  for (const auto& unit : stack.units) {
    const QueryService::Stats s = unit->service->stats();
    t.score_hits += s.score_cache.hits;
    t.score_misses += s.score_cache.misses;
    t.plan_hits += s.plan_cache.hits;
    t.plan_misses += s.plan_cache.misses;
    t.rejected += s.rejected;
    t.peak_inflight = std::max(t.peak_inflight, s.peak_inflight);
  }
  return t;
}

Sample IssueInProcess(const Stack& stack, const Request& request) {
  QueryService::RunOverrides overrides;
  RowSink sink;
  size_t streamed = 0;
  if (request.max_rows != 0) {
    overrides.max_rows = request.max_rows;
    // Top-k callers consume rows as they stream.
    sink = [&streamed](const ResultRow&) { ++streamed; };
  }
  auto result = stack.units[request.cls]->service->Run(*request.query,
                                                       overrides, sink);
  Sample s;
  s.key = request.key;
  s.ok = result.ok();
  if (result.ok()) {
    s.digest = replay::RowDigest(*result);
    s.candidates = result->candidate_sentences;
    s.scanned = result->scanned_candidates;
  }
  return s;
}

/// Issues one request from client `client`.
using Issue = std::function<Sample(size_t client, const Request& request)>;

struct WindowResult {
  std::vector<Sample> samples;
  std::vector<Request> first_of_key;  ///< one request per key issued
  double wall_s = 0;
  double cpu_start_s = 0;
  double waiting_sum = 0;  ///< admission waiting, sampled at each request
  uint64_t topk = 0;
  uint64_t first_seen = 0;
  ServiceTotals before, after;
};

WindowResult RunClosedLoop(const Stack& stack, const RequestMix& mix,
                           const Issue& issue, size_t clients,
                           double seconds) {
  WindowResult out;
  out.before = Totals(stack);
  std::atomic<uint64_t> cursor{0};
  struct PerClient {
    std::vector<Sample> samples;
    std::vector<Request> first_of_key;
    double waiting_sum = 0;
    uint64_t topk = 0, first_seen = 0;
  };
  std::vector<PerClient> per_client(clients);
  const double cpu0 = CpuSeconds();
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c]() {
      PerClient& me = per_client[c];
      std::unordered_set<uint64_t> seen;
      while (Clock::now() < deadline) {
        const Request request = mix(cursor.fetch_add(1));
        me.waiting_sum += static_cast<double>(
            stack.units[request.cls]->service->admission().counters().waiting);
        const auto t0 = Clock::now();
        Sample sample = issue(c, request);
        const auto t1 = Clock::now();
        sample.latency_ms = MillisBetween(t0, t1);
        sample.done_s = std::chrono::duration<double>(t1 - start).count();
        sample.cpu_s = CpuSeconds();
        me.samples.push_back(sample);
        if (request.max_rows != 0) ++me.topk;
        if (request.first_seen) ++me.first_seen;
        if (seen.insert(request.key).second) me.first_of_key.push_back(request);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  out.wall_s = SecondsSince(start);
  out.cpu_start_s = cpu0;
  out.after = Totals(stack);
  for (PerClient& me : per_client) {
    out.samples.insert(out.samples.end(), me.samples.begin(), me.samples.end());
    out.first_of_key.insert(out.first_of_key.end(), me.first_of_key.begin(),
                            me.first_of_key.end());
    out.waiting_sum += me.waiting_sum;
    out.topk += me.topk;
    out.first_seen += me.first_seen;
  }
  return out;
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

struct WorkloadSpec {
  StackOptions stack;
  size_t clients = kClients;
  size_t topk_cap = 0;  ///< row cap of top-k requests (0: none issued)
  double stated_topk = 0;
  double stated_first_seen = 0;
  /// Builds the request stream once the stack (and its queries) exist.
  std::function<RequestMix(const Stack&)> make_mix;
};

/// Every distinct base request (each query, with and without `cap`).
std::vector<Request> BaseRequests(const Stack& stack, size_t cap) {
  std::vector<Request> distinct;
  for (size_t c = 0; c < stack.units.size(); ++c) {
    const auto& queries = stack.units[c]->workload.queries;
    for (size_t q = 0; q < queries.size(); ++q) {
      for (size_t max_rows : {size_t{0}, cap}) {
        Request r;
        r.cls = c;
        r.query = &queries[q].query;
        r.text = &queries[q].text;
        r.max_rows = max_rows;
        r.key = RequestKey(c, q, max_rows);
        distinct.push_back(r);
        if (cap == 0) break;
      }
    }
  }
  return distinct;
}

/// Every query of every class equally likely; top-k with probability
/// `topk_share`.
RequestMix UniformMix(const Stack& stack, uint64_t seed, double topk_share,
                      size_t cap) {
  size_t total = 0;
  for (const auto& unit : stack.units) total += unit->workload.queries.size();
  return [&stack, seed, topk_share, cap, total](uint64_t slot) {
    Request r;
    size_t q = SlotRandom(seed, 1, slot) % total;
    while (q >= stack.units[r.cls]->workload.queries.size()) {
      q -= stack.units[r.cls]->workload.queries.size();
      ++r.cls;
    }
    const auto& query = stack.units[r.cls]->workload.queries[q];
    r.query = &query.query;
    r.text = &query.text;
    r.max_rows = SlotUniform(seed, 3, slot) < topk_share ? cap : 0;
    r.key = RequestKey(r.cls, q, r.max_rows);
    return r;
  };
}

int RunWorkload(const Args& args, const WorkloadSpec& spec) {
  const double kernel_before_s = ProbeKernelSeconds();
  SetupTimes setup;
  auto stack_or = SetUpStack(spec.stack, args, &setup);
  if (!stack_or.ok()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                 stack_or.status().ToString().c_str());
    return 1;
  }
  const Stack& stack = **stack_or;
  const bool wire = spec.stack.serve_wire;
  Connections conns;
  if (wire) {
    auto connected = Connect(stack, spec.clients);
    if (!connected.ok()) {
      std::fprintf(stderr, "perfbench: connect failed: %s\n",
                   connected.status().ToString().c_str());
      return 1;
    }
    conns = std::move(*connected);
  }
  const Issue issue = [&](size_t client, const Request& request) {
    return wire ? IssueOverWire(&conns, client, request)
                : IssueInProcess(stack, request);
  };
  const RequestMix mix = spec.make_mix(stack);
  // Warm-up: every base request once, so caches and lazy set-up are warm
  // before timing.
  for (const Request& request : BaseRequests(stack, spec.topk_cap)) {
    if (!issue(0, request).ok) {
      std::fprintf(stderr, "perfbench: warm-up request failed\n");
      return 1;
    }
  }
  const uint64_t protocol_errors_before =
      wire ? ServerProtocolErrors(stack) : 0;
  // The set-up and warmed stack, before the window's own allocations
  // (which grow with throughput) add to it.
  const double peak_rss_mb = PeakRssMb();

  Report report(args.trace);
  ReferenceBook references(&stack, args.corrupt_digest);
  const double window_s = args.trace ? args.seconds / 4 : args.seconds;
  WindowResult window = RunClosedLoop(stack, mix, issue, spec.clients, window_s);
  for (const Request& r : window.first_of_key) references.Note(r);
  std::vector<Sample> all = window.samples;

  if (args.trace) {
    // Traced pass over the stream's first slots, serial, then the same
    // slots untraced: the wall-time difference is the tracing overhead.
    Tracer tracer;
    LayerTracer layers(&stack, &tracer);
    TracedCounts counts;
    double response_bytes = 0;
    const auto traced_start = Clock::now();
    uint64_t n = 0;
    while (SecondsSince(traced_start) < args.seconds / 4 || n == 0) {
      const Request request = mix(n);
      bool wire_ok = true;
      std::vector<ResultRow> wire_rows;
      LayerTracer::TraceHook hook;
      if (wire) {
        hook = [&](int root) {
          TraceWire(stack, &conns, request, n, root, &tracer, &wire_ok,
                    &wire_rows, &response_bytes);
        };
      }
      Sample s = layers.Trace(request, n, &counts, hook);
      // Over the wire, the served rows must match the serial run too.
      if (wire && (!wire_ok || replay::RowDigest(wire_rows) != s.digest)) {
        s.ok = false;
      }
      all.push_back(s);
      references.Note(request);
      ++n;
    }
    const double traced_s = SecondsSince(traced_start);
    const auto untraced_start = Clock::now();
    for (uint64_t slot = 0; slot < n; ++slot) all.push_back(issue(0, mix(slot)));
    const double untraced_s = SecondsSince(untraced_start);
    ReportLayerTimes(tracer, counts, &report);
    report.Set("trace.overhead_frac", traced_s / untraced_s - 1.0);
    if (wire) {
      report.Set("net.response_bytes", response_bytes / static_cast<double>(n));
      MeasureOpenLoop(stack, &conns, mix, args, &references, &all, &report);
    }
    const std::string path = args.workdir + "/trace_" + args.workload + "_" +
                             std::to_string(args.seed) + ".jsonl";
    if (!tracer.WriteJsonLines(path)) {
      std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
    }
  }

  const double kernel_after_s = ProbeKernelSeconds();
  if (!references.Resolve()) return 1;
  const uint64_t protocol_errors =
      wire ? ServerProtocolErrors(stack) - protocol_errors_before : 0;
  const uint64_t failed = references.CountFailures(all) + protocol_errors;
  const uint64_t attempted = all.size();
  const size_t completed = window.samples.size();
  uint64_t candidates = 0, scanned = 0;
  for (const Sample& s : window.samples) {
    candidates += s.candidates;
    scanned += s.scanned;
  }
  const WindowStats stats = GroupFigures(window.samples, window.cpu_start_s);
  std::fprintf(stderr,
               "perfbench: %s seed=%llu: %zu requests in %.2fs (%zu groups of "
               "%zu), %llu of %llu failed; top-k %.3f (stated %.2f), "
               "first-seen %.3f (stated %.2f)\n"
               "perfbench: host kernel %.3f ms before set-up, %.3f ms after "
               "the window\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               completed, window.wall_s, stats.groups, kGroupRequests,
               static_cast<unsigned long long>(failed),
               static_cast<unsigned long long>(attempted),
               Ratio(window.topk, completed), spec.stated_topk,
               Ratio(window.first_seen, completed), spec.stated_first_seen,
               kernel_before_s * 1e3, kernel_after_s * 1e3);

  if (!args.trace) {
    report.Set("setup_s", setup.total_s);
    report.Set("qps", stats.qps);
    report.Set("latency_p50_ms", stats.p50_ms);
    report.Set("latency_p99_ms", stats.p99_ms);
    report.Set("cpu_ms_per_query", stats.cpu_ms_per_query);
    // A closed loop drives the system at its capacity for the fixed client
    // count, so the highest rate it sustains is its completion rate.
    report.Set("max_rate_qps", stats.qps);
    ReportStackInputs(stack, &report, /*per_class=*/false);
    report.Set("peak_rss_mb", peak_rss_mb);
  } else {
    report.Set("host.kernel_ms", (kernel_before_s + kernel_after_s) / 2 * 1e3);
    report.Set("nlp.annotate_s", setup.annotate_s);
    report.Set("index.build_s", setup.build_s);
    report.Set("index.save_s", setup.save_s);
    report.Set("index.load_s", setup.load_s);
    ReportStackInputs(stack, &report, /*per_class=*/true);
    report.Set("engine.scanned_frac", Ratio(scanned, candidates));
    report.Set("score_cache.hit_rate",
               Ratio(window.after.score_hits - window.before.score_hits,
                     (window.after.score_hits - window.before.score_hits) +
                         (window.after.score_misses - window.before.score_misses)));
    report.Set("plan_cache.hit_rate",
               Ratio(window.after.plan_hits - window.before.plan_hits,
                     (window.after.plan_hits - window.before.plan_hits) +
                         (window.after.plan_misses - window.before.plan_misses)));
    if (!wire) {
      // The wire workload takes these from its open-loop window.
      const double waiting_mean =
          window.waiting_sum / static_cast<double>(completed);
      report.Set("serve.waiting_mean", waiting_mean);
      report.Set("serve.wait_ms", waiting_mean * window.wall_s /
                                      static_cast<double>(completed) * 1e3);
      report.Set("serve.peak_inflight",
                 static_cast<double>(window.after.peak_inflight));
      report.Set("serve.rejected", static_cast<double>(window.after.rejected -
                                                       window.before.rejected));
    }
    report.Set("net.protocol_errors", static_cast<double>(protocol_errors));
    report.Set("input.topk_frac", Ratio(window.topk, completed));
    report.Set("input.first_seen_frac", Ratio(window.first_seen, completed));
  }
  report.Print(failed == 0, attempted, failed);
  return 0;
}

QueryService::Options InProcessServiceOptions() {
  QueryService::Options options;
  options.num_threads = kThreadBudget - kClients;
  options.max_inflight = kClients;
  return options;
}

}  // namespace

// tree_scan: the Synthetic Tree (fig7_happydb, fig8_wiki) and Synthetic
// Span (table1_gsp) benchmarks over ~10k-sentence corpora; 70% of requests
// are top-k. Exercises DPLI, the planner and engine extract; bypasses
// aggregate, regex, embed, the score cache and the wire.
int RunTreeScan(const Args& args) {
  WorkloadSpec spec;
  spec.stack.classes = {replay::WorkloadClass::kFig7HappyDb,
                        replay::WorkloadClass::kFig8Wiki,
                        replay::WorkloadClass::kTable1Gsp};
  spec.stack.scale = args.tiny ? 1 : 64;
  spec.stack.queries_per_class = 1000;  // every generated query
  spec.stack.service = InProcessServiceOptions();
  spec.topk_cap = kTreeTopK;
  spec.stated_topk = kTreeTopKShare;
  const uint64_t seed = args.seed;
  spec.make_mix = [seed](const Stack& stack) {
    return UniformMix(stack, seed, kTreeTopKShare, kTreeTopK);
  };
  return RunWorkload(args, spec);
}

// evidence_mix: the Appendix-A cafe query and the WNUT team and facility
// queries. One request in ten carries a first-seen clause variant (weights
// perturbed from the seed), whose scores are cold; the rest repeat base
// queries whose scores the service cache already holds.
int RunEvidenceMix(const Args& args) {
  WorkloadSpec spec;
  spec.stack.classes = {replay::WorkloadClass::kFig3Cafe,
                        replay::WorkloadClass::kFig4Wnut,
                        replay::WorkloadClass::kFig5Descriptors};
  spec.stack.scale = args.tiny ? 1 : 4;
  spec.stack.queries_per_class = 8;
  spec.stack.service = InProcessServiceOptions();
  spec.stated_first_seen = kFirstSeenShare;
  const uint64_t seed = args.seed;
  spec.make_mix = [seed](const Stack& stack) -> RequestMix {
    const RequestMix base = UniformMix(stack, seed, 0, 0);
    return [base, seed](uint64_t slot) {
      Request r = base(slot);
      if (SlotUniform(seed, 13, slot) >= kFirstSeenShare) return r;
      // Perturb every satisfying weight by up to ±20% (3 decimals, as the
      // printer writes them): the clause fingerprint is new, so its scores
      // are not in the cache. Thresholds stay: the fingerprint ignores them.
      auto variant = std::make_shared<Query>(*r.query);
      uint64_t draw = 0;
      for (SatisfyingClause& clause : variant->satisfying) {
        for (SatCondition& cond : clause.conditions) {
          const double factor =
              0.8 + 0.4 * SlotUniform(seed, 100 + draw++, slot);
          cond.weight =
              std::max(0.001, std::round(cond.weight * factor * 1000) / 1000);
        }
      }
      r.owned_text =
          std::make_shared<const std::string>(QueryToString(*variant));
      r.text = r.owned_text.get();
      r.owned = variant;
      r.query = variant.get();
      r.first_seen = true;
      r.key = RequestKey(r.cls, (uint64_t{1} << 40) + slot, 0);
      return r;
    };
  };
  return RunWorkload(args, spec);
}

// wire_closed: small, warm corpora of all six classes served over TCP;
// a quarter of the requests stream top-k rows. Engine time per request is
// small, so the wire, admission and the batcher carry the largest share.
int RunWireClosed(const Args& args) {
  WorkloadSpec spec;
  spec.stack.classes = replay::AllWorkloadClasses();
  spec.stack.scale = 1;
  spec.stack.queries_per_class = 8;
  // Serial services admitting one query at a time: a request meeting
  // another for the same class waits for admission.
  spec.stack.service.num_threads = 1;
  spec.stack.service.max_inflight = 1;
  spec.stack.service.max_queue = 8;
  spec.stack.serve_wire = true;
  spec.clients = kWireClients;
  spec.topk_cap = kWireTopK;
  spec.stated_topk = kWireTopKShare;
  const uint64_t seed = args.seed;
  spec.make_mix = [seed](const Stack& stack) {
    return UniformMix(stack, seed, kWireTopKShare, kWireTopK);
  };
  return RunWorkload(args, spec);
}

}  // namespace perfbench
