// Open-loop Poisson traffic over TCP, and the network spans of a traced
// wire request.
//
// Latency is timed from when each request was due, so a stall charges
// every request queued behind it. A fixed offered rate gives latency
// figures; a ladder of rising rates gives the highest rate whose p99 meets
// kLatencyLimitMs with no growing backlog. On a shared 4-vCPU host these
// figures spread far more than the bounds allow (see METRICS.md), so they
// are per-layer figures of the wire workload's traced run, not gated
// end-to-end metrics.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "net/client.h"
#include "net/frame.h"

namespace perfbench {

using namespace koko;

namespace {

/// Arrivals that are a pair of identical requests sent at the same
/// instant (so the batcher can coalesce them): every ninth arrival, which
/// makes 1/5 of requests duplicates.
constexpr uint64_t kPairEvery = 9;
constexpr double kDuplicateShare = 2.0 / (kPairEvery + 1);
/// Offered rate of the fixed-rate window, well below the rate at which
/// p99 reaches the limit.
constexpr double kFixedRateQps = 250;
/// Rate ladder: the fixed-rate window is its first step; each further
/// step offers kLadderFactor more, until one misses the limit. A step is
/// judged on GroupFigures over its kStepGroups request groups.
constexpr double kLadderFactor = 1.5;
constexpr int kLadderMaxSteps = 8;
constexpr size_t kStepGroups = 2;
constexpr double kLatencyLimitMs = 50;
/// A step whose completions fall this far behind its offered rate has a
/// growing backlog.
constexpr double kMinAchievedShare = 0.95;
/// The fixed-rate window is invalid when the generator itself ran later
/// than this at p99 (median over request groups).
constexpr double kLagBoundMs = 10;

struct Slot {
  double due_s = 0;
  Request request;
  bool duplicate = false;
};

/// Poisson arrivals at `rate_qps` over `seconds`, conditioned on the
/// expected request count: the arrival instants are sorted uniform draws,
/// so the offered load is exact and only the spacing is random.
std::vector<Slot> PoissonSchedule(const RequestMix& mix, uint64_t seed,
                                  uint64_t stream, double rate_qps,
                                  double seconds) {
  const double per_arrival = 1 + 1.0 / kPairEvery;
  const auto arrivals =
      static_cast<uint64_t>(std::llround(rate_qps * seconds / per_arrival));
  std::vector<double> due;
  for (uint64_t i = 0; i < arrivals; ++i) {
    due.push_back(seconds * SlotUniform(seed, stream, i));
  }
  std::sort(due.begin(), due.end());
  const uint64_t pair_phase = SlotRandom(seed, stream, arrivals) % kPairEvery;
  std::vector<Slot> slots;
  for (uint64_t i = 0; i < arrivals; ++i) {
    Slot slot;
    slot.due_s = due[i];
    slot.request = mix((stream << 32) + i);
    slot.duplicate = i % kPairEvery == pair_phase;
    slots.push_back(slot);
    if (slot.duplicate) slots.push_back(slot);  // same request, same instant
  }
  return slots;
}

struct ServerTotals {
  uint64_t requests = 0, followers = 0, protocol_errors = 0;
  uint64_t rejected = 0, peak_inflight = 0;
};

ServerTotals Totals(const Stack& stack) {
  ServerTotals t;
  for (const auto& unit : stack.units) {
    const net::KokoServer::Stats s = unit->server->stats();
    t.requests += s.requests;
    t.followers += s.batch.followers;
    t.protocol_errors += s.protocol_errors;
    const AdmissionQueue::Counters c = unit->service->admission().counters();
    t.rejected += c.rejected;
    t.peak_inflight = std::max(t.peak_inflight, c.peak_inflight);
  }
  return t;
}

struct PhaseResult {
  std::vector<Sample> samples;  ///< index-aligned with the schedule
  std::vector<double> lag_ms;
  double wall_s = 0;
  double cpu_start_s = 0;
  double waiting_sum = 0;  ///< admission waiting, sampled at each arrival
  ServerTotals before, after;

  WindowStats Stats() const { return GroupFigures(samples, cpu_start_s); }
  double Achieved() const {
    return static_cast<double>(samples.size()) / wall_s;
  }
};

/// Open loop: connections claim slots in due order, wait until each is
/// due, send it, and time it from its due instant.
PhaseResult RunOpenPhase(const Stack& stack, Connections* conns,
                         const std::vector<Slot>& schedule) {
  PhaseResult out;
  out.samples.resize(schedule.size());
  out.lag_ms.resize(schedule.size());
  out.before = Totals(stack);
  std::atomic<size_t> cursor{0};
  std::vector<double> waiting(conns->size(), 0);
  const double cpu0 = CpuSeconds();
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (size_t w = 0; w < conns->size(); ++w) {
    threads.emplace_back([&, w]() {
      for (;;) {
        const size_t i = cursor.fetch_add(1);
        if (i >= schedule.size()) return;
        const Slot& slot = schedule[i];
        const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(slot.due_s));
        std::this_thread::sleep_until(due);
        // Poisson arrivals see time averages: sampling the admission
        // queues here estimates their mean occupancy.
        for (const auto& unit : stack.units) {
          waiting[w] += static_cast<double>(
              unit->service->admission().counters().waiting);
        }
        const auto sent = Clock::now();
        Sample s = IssueOverWire(conns, w, slot.request);
        const auto done = Clock::now();
        s.latency_ms = MillisBetween(due, done);
        s.done_s = std::chrono::duration<double>(done - start).count();
        s.cpu_s = CpuSeconds();
        out.samples[i] = s;
        out.lag_ms[i] = MillisBetween(due, sent);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  out.wall_s = SecondsSince(start);
  out.cpu_start_s = cpu0;
  out.after = Totals(stack);
  for (double w : waiting) out.waiting_sum += w;
  return out;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Top-k requests stream their rows.
net::NetRequest ToNetRequest(const Request& request) {
  net::NetRequest wire;
  wire.query_text = *request.text;
  wire.max_rows = request.max_rows;
  wire.streaming = request.max_rows != 0;
  return wire;
}

}  // namespace

Sample IssueOverWire(Connections* conns, size_t client, const Request& request) {
  Sample s;
  s.key = request.key;
  auto wire = (*conns)[client][request.cls].Query(ToNetRequest(request));
  s.ok = wire.ok() && wire->status.ok();
  if (s.ok) {
    s.digest = replay::RowDigest(wire->rows);
    s.candidates = wire->done.candidate_sentences;
    s.scanned = wire->done.scanned_candidates;
  }
  return s;
}

Result<Connections> Connect(const Stack& stack, size_t clients) {
  Connections conns(clients);
  for (auto& per_client : conns) {
    for (const auto& unit : stack.units) {
      auto client = net::KokoClient::Connect(unit->server->port());
      if (!client.ok()) return client.status();
      per_client.push_back(std::move(*client));
    }
  }
  return conns;
}

uint64_t ServerProtocolErrors(const Stack& stack) {
  return Totals(stack).protocol_errors;
}

void MeasureOpenLoop(const Stack& stack, Connections* conns,
                     const RequestMix& mix, const Args& args,
                     ReferenceBook* references, std::vector<Sample>* all,
                     Report* report) {
  auto note = [&](const std::vector<Slot>& schedule, const PhaseResult& r) {
    for (const Slot& slot : schedule) references->Note(slot.request);
    all->insert(all->end(), r.samples.begin(), r.samples.end());
  };
  const std::vector<Slot> fixed_schedule =
      PoissonSchedule(mix, args.seed, 1, kFixedRateQps, args.seconds / 4);
  const PhaseResult fixed = RunOpenPhase(stack, conns, fixed_schedule);
  note(fixed_schedule, fixed);
  const WindowStats fixed_stats = fixed.Stats();

  auto passes = [](const PhaseResult& r, double rate, double p99) {
    return p99 <= kLatencyLimitMs && r.Achieved() >= kMinAchievedShare * rate;
  };
  double max_rate = 0;
  double prev_rate = kFixedRateQps, prev_p99 = fixed_stats.p99_ms;
  if (passes(fixed, kFixedRateQps, prev_p99)) {
    max_rate = kFixedRateQps;
    double rate = kFixedRateQps;
    for (int step = 1; step < kLadderMaxSteps; ++step) {
      rate *= kLadderFactor;
      const double step_s =
          static_cast<double>(kStepGroups * kGroupRequests) / rate;
      const auto schedule = PoissonSchedule(
          mix, args.seed, 100 + static_cast<uint64_t>(step), rate, step_s);
      const PhaseResult r = RunOpenPhase(stack, conns, schedule);
      note(schedule, r);
      const double p99 = r.Stats().p99_ms;
      if (passes(r, rate, p99)) {
        prev_rate = max_rate = rate;
        prev_p99 = p99;
        continue;
      }
      // Interpolate the rate at which p99 crosses the limit; a step that
      // failed on backlog alone keeps the last passing rate.
      if (p99 > kLatencyLimitMs) {
        max_rate = prev_rate + (rate - prev_rate) *
                                   (kLatencyLimitMs - prev_p99) /
                                   (p99 - prev_p99);
      }
      break;
    }
  }

  std::vector<double> group_lag_p99;
  for (size_t b = 0; b + kGroupRequests <= fixed.lag_ms.size();
       b += kGroupRequests) {
    group_lag_p99.push_back(Quantile(
        std::vector<double>(fixed.lag_ms.begin() + static_cast<long>(b),
                            fixed.lag_ms.begin() +
                                static_cast<long>(b + kGroupRequests)),
        0.99));
  }
  const double lag_p99 = group_lag_p99.empty() ? Quantile(fixed.lag_ms, 0.99)
                                               : Median(group_lag_p99);
  const bool valid = lag_p99 <= kLagBoundMs;
  uint64_t duplicates = 0;
  for (const Slot& slot : fixed_schedule) duplicates += slot.duplicate ? 1 : 0;
  const double n = static_cast<double>(fixed.samples.size());
  const double achieved = fixed.Achieved();
  const double follower_frac =
      Ratio(static_cast<double>(fixed.after.followers - fixed.before.followers),
            static_cast<double>(fixed.after.requests - fixed.before.requests));
  std::fprintf(stderr,
               "perfbench: open loop: %.0f requests at %.0f qps offered; lag "
               "p99 %.2f ms (bound %.0f: %s); duplicates %.3f (stated %.3f) -> "
               "batch followers %.3f; max rate %.0f qps at p99 <= %.0f ms\n",
               n, kFixedRateQps, lag_p99, kLagBoundMs,
               valid ? "valid" : "INVALID", Ratio(static_cast<double>(duplicates), n),
               kDuplicateShare, follower_frac, max_rate, kLatencyLimitMs);

  report->Set("open.latency_p50_ms", fixed_stats.p50_ms);
  report->Set("open.latency_p99_ms", fixed_stats.p99_ms);
  report->Set("open.max_rate_qps", max_rate);
  report->Set("loadgen.lag_p99_ms", lag_p99);
  report->Set("loadgen.valid", valid ? 1 : 0);
  const double waiting_mean = fixed.waiting_sum / n;
  report->Set("serve.waiting_mean", waiting_mean);
  report->Set("serve.wait_ms", waiting_mean / achieved * 1e3);  // Little's law
  report->Set("serve.peak_inflight", static_cast<double>(fixed.after.peak_inflight));
  report->Set("serve.rejected",
              static_cast<double>(fixed.after.rejected - fixed.before.rejected));
  report->Set("net.batch_follower_frac", follower_frac);
  report->Set("input.duplicate_frac", Ratio(static_cast<double>(duplicates), n));
}

void TraceWire(const Stack& stack, Connections* conns, const Request& request,
               uint64_t id, int parent, Tracer* tracer, bool* ok,
               std::vector<ResultRow>* wire_rows, double* response_bytes) {
  QueryService::RunOverrides overrides;
  if (request.max_rows != 0) overrides.max_rows = request.max_rows;
  {
    ScopedSpan span(tracer, id, "serve.run", parent);
    auto r = stack.units[request.cls]->service->Run(*request.query, overrides,
                                                    RowSink());
    if (!r.ok()) *ok = false;
  }
  Result<net::WireResult> wire = Status::Internal("not sent");
  {
    ScopedSpan span(tracer, id, "net.query", parent);
    wire = (*conns)[0][request.cls].Query(ToNetRequest(request));
  }
  if (!wire.ok() || !wire->status.ok()) {
    *ok = false;
    return;
  }
  std::vector<std::vector<uint8_t>> payloads;
  {
    ScopedSpan span(tracer, id, "net.encode", parent);
    for (size_t b = 0; b < wire->rows.size(); b += net::kRowsPerFrame) {
      payloads.push_back(net::EncodeRowsPayload(
          wire->rows, b, std::min(net::kRowsPerFrame, wire->rows.size() - b)));
    }
  }
  {
    ScopedSpan span(tracer, id, "net.decode", parent);
    for (const auto& payload : payloads) {
      if (!net::DecodeRowsPayload(payload.data(), payload.size()).ok()) {
        *ok = false;
      }
    }
  }
  for (const auto& payload : payloads) {
    *response_bytes += static_cast<double>(payload.size());
  }
  *wire_rows = std::move(wire->rows);
}

}  // namespace perfbench
