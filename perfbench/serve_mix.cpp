// Workload serve_mix: traffic into an in-process serve::Server on a Unix
// socket, with the answer journal on.
//
// Inputs: requests of 3-5 jobs on a 32-node machine with an optional
// free-capacity staircase, solved at a forced 60 s time scale under a B&B
// node budget. About half of the requests are deliberate repeats of an
// earlier request of the same segment whose first send was due at least
// kRepeatAfter earlier (cache-hit reads); the rest are fresh instances (a
// solve plus a journal append). --seed draws which requests are repeats and
// which earlier request each repeats. The fresh instances are a pinned pool
// (kPoolSeed): the cache-miss p99 is set by the few hardest of over 1,000
// solves per send, and a pinned pool keeps it a property of the code rather
// than of which instances a seed drew. Repeats are drawn on purpose, so
// duplicate solves show up as serve.solves_per_unique > 1 instead of being
// an artefact of client striding.
//
// Load generator: one client thread in this process, one connection per
// request, as serve::Client does, sending its stream back to back (closed
// loop); each latency is timed from send to reply. The stream is sent
// kReferenceSends times, each send against a fresh server, and the latency
// metrics pool the samples of all sends, which span the run; the rate
// metric is the answered requests per second over the sends. Open-loop
// arrivals from due times were tried (4 clients at 200 and 400 requests/s,
// 2 at 250, 1 at 100), and so was a 4-client closed-loop capacity segment:
// on a host whose other tenants take CPU from it, their latencies and rates
// spread by 0.3 to 1.0 of the median from run to run, since a stall or a
// wake from idle charges every request queued behind it; one client back to
// back spread least.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench.hpp"
#include "decompose.hpp"
#include "dynsched/analysis/model_lint.hpp"
#include "dynsched/analysis/schedule_validator.hpp"
#include "dynsched/serve/client.hpp"
#include "dynsched/serve/server.hpp"
#include "dynsched/tip/request_adapter.hpp"
#include "dynsched/util/journal.hpp"
#include "dynsched/util/rng.hpp"

namespace perfbench {

using namespace dynsched;

namespace {

constexpr NodeCount kNodes = 32;
constexpr long kNodeBudget = 50;
constexpr Time kTimeScale = 60;
constexpr std::size_t kClients = 1;  ///< load generator threads
constexpr double kRepeatShare = 0.5;
constexpr double kRepeatAfter = 0.25;  ///< seconds from first send to repeat
constexpr int kSetupRepeats = 25;
constexpr int kReferenceSends = 3;
constexpr std::uint64_t kPoolSeed = 44;  ///< the fresh-instance pool
/// The rate the stream is drawn for (it spaces the repeats and sizes the
/// stream; a stream the client finishes early ends the send early) and the
/// share of --seconds over all sends. Each send has over 1,000 cache misses
/// and 1,000 hits, so both p99s have ten samples beyond them.
constexpr double kReferenceRate = 400;
constexpr double kReferenceShare = 0.8;

/// One stretch of traffic: each client sends its next request when the
/// previous one returns, until `seconds` have passed or the stream ends.
/// Request i's place in the stream is i / rate seconds. Instance indices
/// start at `base`.
struct Segment {
  double rate;
  double seconds;
  std::uint64_t base;
};

/// The index-th fresh instance of the pool drawn from `seed`.
serve::ScheduleRequest makeRequest(std::uint64_t seed, std::uint64_t index) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + index + 1);
  serve::ScheduleRequest request;
  request.clientRequestId = index;
  request.machine = core::Machine{kNodes};
  request.now = static_cast<Time>(1000 * (index + 1));
  request.metric = core::MetricKind::SldWA;
  request.maxNodes = kNodeBudget;
  if (rng.uniform() < 0.5) {
    const int steps = static_cast<int>(rng.uniformInt(1, 3));
    Time when = request.now;
    NodeCount freeNodes =
        static_cast<NodeCount>(rng.uniformInt(1, kNodes - 1));
    for (int s = 0; s < steps; ++s) {
      request.history.push_back(core::MachineHistory::Entry{when, freeNodes});
      when += static_cast<Time>(rng.uniformInt(60, 600));
      freeNodes = static_cast<NodeCount>(rng.uniformInt(freeNodes, kNodes));
    }
    request.history.push_back(core::MachineHistory::Entry{when, kNodes});
  }
  const int jobCount = static_cast<int>(rng.uniformInt(3, 5));
  for (int j = 0; j < jobCount; ++j) {
    core::Job job;
    job.id = static_cast<JobId>(index * 1000 + static_cast<std::uint64_t>(j));
    job.submit = request.now - static_cast<Time>(rng.uniformInt(0, 300));
    job.width = static_cast<NodeCount>(rng.uniformInt(1, kNodes));
    job.estimate = static_cast<Time>(rng.uniformInt(120, 600));
    job.actualRuntime = static_cast<Time>(rng.uniformInt(60, job.estimate));
    request.jobs.push_back(job);
  }
  return request;
}

/// One request of the stream: which instance, and when it is due.
struct Planned {
  std::size_t instance = 0;  ///< index into Stream::instances
  bool repeat = false;       ///< an earlier instance sent again
  double due = 0;            ///< seconds after the level start
};

/// The requests of one segment.
struct Stream {
  std::vector<serve::ScheduleRequest> instances;
  std::vector<Planned> plan;
};

/// Draws one segment's requests from `seed`.
Stream makeStream(std::uint64_t seed, const Segment& segment) {
  Stream stream;
  util::Rng rng((seed ^ 0x5e7e5e7eULL) + segment.base);
  std::vector<double> firstDue;  // per instance
  const auto count = static_cast<std::size_t>(segment.rate * segment.seconds);
  for (std::size_t i = 0; i < count; ++i) {
    Planned p;
    p.due = static_cast<double>(i) / segment.rate;
    // Instances eligible for a repeat: first due kRepeatAfter ago.
    const auto eligible = static_cast<std::size_t>(
        std::upper_bound(firstDue.begin(), firstDue.end(),
                         p.due - kRepeatAfter) -
        firstDue.begin());
    if (eligible > 0 && rng.uniform() < kRepeatShare) {
      p.repeat = true;
      p.instance = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(eligible) - 1));
    } else {
      p.instance = stream.instances.size();
      stream.instances.push_back(
          makeRequest(kPoolSeed, segment.base + p.instance));
      firstDue.push_back(p.due);
    }
    stream.plan.push_back(p);
  }
  return stream;
}

/// What the client saw for one request.
struct Outcome {
  bool sent = false;     ///< false: a closed-loop segment ended first
  double lateMs = 0;     ///< send - due
  double latencyMs = 0;  ///< reply - due
  double rttMs = 0;      ///< reply - send
  bool ok = false;
  bool cached = false;
  double solveMs = 0;    ///< ScheduleResponse::seconds
  std::optional<serve::ScheduleResponse> response;
};

serve::ServerOptions serverOptions(const std::string& socket,
                                   const std::string& journal) {
  serve::ServerOptions options;
  options.unixPath = socket;
  options.ioThreads = kClients;
  options.pollIntervalMs = 20;
  options.service.maxConcurrent = 3;
  options.service.maxQueueDepth = 8;
  options.service.cacheCapacity = 1u << 16;  // the whole stream fits
  options.service.solve.forcedTimeScale = kTimeScale;
  options.service.faults = util::FaultPlan{};
  options.service.journal.path = journal;
  return options;
}

/// A running server on its own thread; stops and joins on destruction.
class LiveServer {
 public:
  explicit LiveServer(const serve::ServerOptions& options)
      : server_(options), thread_([this] { server_.run(); }) {}
  ~LiveServer() {
    server_.stop();
    thread_.join();
  }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  serve::Server& server() { return server_; }

 private:
  serve::Server server_;
  std::thread thread_;
};

serve::ClientOptions clientOptions(const std::string& socket,
                                   std::uint64_t seed) {
  serve::ClientOptions options;
  options.unixPath = socket;
  options.timeoutMs = 60000;
  options.retry.maxAttempts = 8;
  options.retry.baseDelaySeconds = 0.005;
  options.retry.maxDelaySeconds = 0.1;
  options.rngSeed = seed;
  return options;
}

/// Sends one segment from kClients threads; returns one outcome per
/// planned request, and in `seconds` the time from the first due time until
/// the last reply. The calling thread runs the host probe meanwhile.
std::vector<Outcome> sendSegment(const Segment& segment, const Stream& stream,
                                 const std::string& socket, std::uint64_t seed,
                                 double& seconds) {
  const std::vector<Planned>& plan = stream.plan;
  std::vector<Outcome> outcomes(plan.size());
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> finished{0};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(segment.seconds));
  const auto worker = [&](std::size_t c) {
    serve::Client client(clientOptions(socket, seed + c));
    for (std::size_t i = next.fetch_add(1); i < plan.size();
         i = next.fetch_add(1)) {
      std::this_thread::sleep_until(start);
      const Clock::time_point due = Clock::now();
      if (due >= stop) break;
      const Clock::time_point sent = Clock::now();
      Outcome& out = outcomes[i];
      out.sent = true;
      try {
        const Span s("serve.request", i + 1);
        out.response = client.schedule(stream.instances[plan[i].instance]);
        out.ok = out.response->status == serve::ResponseStatus::Ok;
      } catch (const std::exception&) {
        out.ok = false;
      }
      const Clock::time_point done = Clock::now();
      const auto ms = [](Clock::duration d) {
        return std::chrono::duration<double, std::milli>(d).count();
      };
      out.lateMs = ms(sent - due);
      out.latencyMs = ms(done - due);
      out.rttMs = ms(done - sent);
      if (out.response) {
        out.cached = out.response->cached;
        out.solveMs = out.response->seconds * 1e3;
      }
    }
    finished.fetch_add(1);
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) threads.emplace_back(worker, c);
  while (finished.load() < kClients) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    HostProbe::tick();
  }
  for (std::thread& t : threads) t.join();
  seconds = secondsSince(start);
  return outcomes;
}

/// Latency samples of one segment (pooled over its sends), split by class.
struct LevelStats {
  std::vector<double> miss, hit, late, all;
  std::size_t failures = 0;
  std::size_t fresh = 0;
  double valueSum = 0;     ///< over the answers to fresh instances
  double seconds = 0;      ///< first due to last reply, summed over sends
  double lateTailMs = 0;   ///< lateness over the last tenth of each send
  std::uint64_t shed = 0;  ///< Health shed, summed over the sends

  void add(const Stream& stream, const std::vector<Outcome>& outcomes,
           double sendSeconds) {
    seconds += sendSeconds;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const Outcome& o = outcomes[i];
      const Planned& p = stream.plan[i];
      if (!o.sent) continue;
      late.push_back(o.lateMs);
      if (i >= outcomes.size() * 9 / 10) {
        lateTailMs = std::max(lateTailMs, o.lateMs);
      }
      if (!o.ok) {
        ++failures;
        continue;
      }
      all.push_back(o.latencyMs);
      (o.cached ? hit : miss).push_back(o.latencyMs);
      if (!p.repeat) {
        ++fresh;
        valueSum += o.response->solvedValue;
      }
    }
  }
};

/// Correctness of one segment: every answer is a valid schedule for its
/// request, and every repeat's canonical answer equals the first answer.
void checkSegment(const Stream& stream, const std::vector<Outcome>& outcomes,
                  Report& report) {
  const std::vector<Planned>& plan = stream.plan;
  std::map<std::size_t, std::string> firstAnswer;
  const analysis::ScheduleValidator validator;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Outcome& o = outcomes[i];
    if (!o.sent) continue;
    report.attempted(1);
    if (!o.ok) {
      report.failed(1);
      continue;
    }
    const serve::ScheduleRequest& request = stream.instances[plan[i].instance];
    const serve::ScheduleResponse& response = *o.response;
    const std::string text = serve::canonicalResponseText(response);
    const auto [it, fresh] = firstAnswer.emplace(plan[i].instance, text);
    report.check(fresh || it->second == text,
                 "serve_mix: a repeat's answer differs from the first answer "
                 "for instance " +
                     std::to_string(plan[i].instance));
    if (!fresh) continue;  // identical text, already validated
    std::map<JobId, core::Job> jobs;
    for (const core::Job& job : request.jobs) jobs.emplace(job.id, job);
    core::Schedule schedule;
    bool known = response.schedule.size() == request.jobs.size();
    for (const serve::PlacedJob& placed : response.schedule) {
      const auto job = jobs.find(placed.id);
      if (job == jobs.end()) {
        known = false;
        break;
      }
      schedule.add(job->second, placed.start, placed.duration);
    }
    report.check(known, "serve_mix: answer does not place exactly the "
                        "requested jobs");
    if (!known) continue;
    const core::MachineHistory history =
        request.history.empty()
            ? core::MachineHistory::empty(request.machine, request.now)
            : core::MachineHistory::fromEntries(request.history);
    const auto verdict = validator.validate(schedule, history, request.now);
    report.check(verdict.ok(),
                 "serve_mix: answer schedule invalid: " + verdict.toString());
  }
}

std::string ms3(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

/// What one send of a segment produced, with the server's Health counts.
struct SegmentResult {
  std::vector<Outcome> outcomes;
  serve::HealthStats health;
  double seconds = 0;  ///< first due time to last reply
};

/// Starts a fresh server, sends the segment, checks the answers.
SegmentResult runSegment(const Segment& segment, const Stream& stream,
                         const std::string& workdir, std::uint64_t clientSeed,
                         Report& report) {
  const std::string tag = workdir + "/serve-" + std::to_string(::getpid());
  SegmentResult result;
  {
    LiveServer live(serverOptions(tag + ".sock", tag + ".journal"));
    result.outcomes = sendSegment(segment, stream, tag + ".sock", clientSeed,
                                  result.seconds);
    result.health = live.server().service().health();
  }
  std::filesystem::remove(tag + ".journal");
  checkSegment(stream, result.outcomes, report);
  return result;
}

/// Checks that another send of the same stream answered every request
/// with the same canonical text as the first send did.
void checkSameAnswers(const std::vector<Outcome>& first,
                      const std::vector<Outcome>& send, Report& report) {
  for (std::size_t i = 0; i < first.size(); ++i) {
    if (!first[i].ok || !send[i].ok) continue;  // counted as failures
    report.check(serve::canonicalResponseText(*first[i].response) ==
                     serve::canonicalResponseText(*send[i].response),
                 "serve_mix: request " + std::to_string(i) +
                     " was answered differently in two sends");
  }
}

std::uint64_t solvesOf(const serve::HealthStats& health) {
  std::uint64_t solves = 0;
  for (const std::uint64_t c : health.rungCount) solves += c;
  return solves;
}

}  // namespace

void runServeMix(const Args& args, Report& report) {
  std::filesystem::create_directories(args.workdir);
  const std::string tag = args.workdir + "/serve-" + std::to_string(::getpid());
  const std::string socket = tag + ".sock";
  const std::string journal = tag + ".journal";
  const auto lintBefore = analysis::modelLintStats().modelsLinted;

  // The reference level, sent kReferenceSends times; the traced run sends
  // it once.
  std::vector<Segment> levels;
  std::vector<int> sends;
  sends.push_back(args.trace ? 1 : kReferenceSends);
  levels.push_back(Segment{kReferenceRate,
                           kReferenceShare * args.seconds / kReferenceSends,
                           0});
  // Set-up: drawing the request streams, then starting a server (bind,
  // journal create, thread start) until it answers a health probe; repeated
  // (median). The clock stops at the answer, before the server is stopped,
  // and every sample starts without a journal.
  std::vector<double> setupSamples;
  std::vector<Stream> streams;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t = Clock::now();
    streams.clear();
    for (const Segment& level : levels) {
      streams.push_back(makeStream(args.seed, level));
    }
    {
      LiveServer live(serverOptions(socket, journal));
      serve::Client(clientOptions(socket, 1)).health();
      setupSamples.push_back(secondsSince(t));
    }
    std::filesystem::remove(journal);
    HostProbe::tick();
  }

  // Every send runs against a fresh server. The traced run keeps its one
  // send's outcomes as the untraced baseline.
  const std::vector<std::size_t> sendOrder(sends[0], 0);  ///< level per send

  std::vector<LevelStats> stats(levels.size());
  std::vector<std::vector<Outcome>> first(levels.size());  ///< first send
  std::vector<std::uint64_t> sent(levels.size(), 0);
  SegmentResult traceBase;
  std::size_t attempted = 0, failures = 0, repeats = 0, hits = 0;
  std::size_t uniques = 0;  ///< distinct fingerprints, summed over sends
  std::uint64_t solves = 0, shed = 0;
  for (const std::size_t l : sendOrder) {
    const Stream& stream = streams[l];
    SegmentResult r =
        runSegment(levels[l], stream, args.workdir,
                   args.seed * 100 + l * 10 + sent[l]++, report);
    std::set<std::uint64_t> fingerprints;
    for (std::size_t i = 0; i < stream.plan.size(); ++i) {
      const Outcome& o = r.outcomes[i];
      if (!o.sent) continue;
      const Planned& p = stream.plan[i];
      fingerprints.insert(
          serve::requestFingerprint(stream.instances[p.instance]));
      if (p.repeat) ++repeats;
      ++attempted;
      if (!o.ok) ++failures;
      if (o.cached) ++hits;
    }
    uniques += fingerprints.size();
    solves += solvesOf(r.health);
    shed += r.health.shed;
    stats[l].shed += r.health.shed;
    if (args.trace) traceBase = r;
    stats[l].add(stream, r.outcomes, r.seconds);
    if (first[l].empty()) {
      first[l] = std::move(r.outcomes);
    } else {
      checkSameAnswers(first[l], r.outcomes, report);
    }
  }

  std::printf("serve_mix: %zu client threads, node budget %ld, time scale "
              "%lld s\n",
              kClients, kNodeBudget, static_cast<long long>(kTimeScale));
  std::printf("%8s %5s %7s %7s %7s %6s %6s %10s %12s %10s %12s %9s %9s\n",
              "offered", "sends", "sent", "misses", "hits", "shed", "failed",
              "miss p50", "miss tail", "hit p50", "hit tail", "late tail",
              "achieved");
  for (std::size_t l = 0; l < levels.size(); ++l) {
    const LevelStats& s = stats[l];
    const double mq = tailQuantile(s.miss.size());
    const double hq = tailQuantile(s.hit.size());
    const std::string offered = "closed";
    std::printf("%8s %5d %7zu %7zu %7zu %6llu %6zu %10.3f %7.3f@p%.0f "
                "%10.3f %7.3f@p%.0f %9.3f %9.1f\n",
                offered.c_str(), sends[l], s.late.size(), s.miss.size(),
                s.hit.size(), static_cast<unsigned long long>(s.shed),
                s.failures, median(s.miss), quantile(s.miss, mq), mq * 100,
                median(s.hit), quantile(s.hit, hq), hq * 100, s.lateTailMs,
                static_cast<double>(s.all.size()) / s.seconds);
  }
  const LevelStats& ref = stats.front();
  const double answeredPerSecond =
      static_cast<double>(ref.all.size()) / ref.seconds;
  const double missQ = tailQuantile(ref.miss.size());
  const double hitQ = tailQuantile(ref.hit.size());
  if (missQ < 0.99 || hitQ < 0.99) {
    std::printf("note: the reference level is too short for a p99 with ten "
                "samples beyond it; the tails above are p%.0f (misses) and "
                "p%.0f (hits)\n",
                missQ * 100, hitQ * 100);
  }
  const double failShare =
      static_cast<double>(failures) / static_cast<double>(attempted);
  double valueSum = 0;
  std::size_t valueCount = 0;
  for (const LevelStats& s : stats) {
    valueSum += s.valueSum;
    valueCount += s.fresh;
  }
  std::printf(
      "workload metrics: setup_s %.6f s, serve_miss_ms_p50 %s ms, "
      "serve_miss_ms_p99 %s ms (%zu misses), serve_hit_ms_p50 %s ms, "
      "serve_hit_ms_p99 %s ms (%zu hits), serve_max_rps %.1f 1/s (answered "
      "per second, %zu client back to back), serve_fail_share %.6f (%zu of "
      "%zu)\n",
      median(setupSamples), ms3(median(ref.miss)).c_str(),
      ms3(quantile(ref.miss, missQ)).c_str(), ref.miss.size(),
      ms3(median(ref.hit)).c_str(), ms3(quantile(ref.hit, hitQ)).c_str(),
      ref.hit.size(), answeredPerSecond, kClients, failShare, failures,
      attempted);
  std::printf("ratio serve.hit_ratio = %zu hits / %zu repeats sent\n", hits,
              repeats);
  std::printf("ratio serve.solves_per_unique = %llu solves (Health rungCount) "
              "/ %zu distinct fingerprints sent (per send, summed over "
              "sends)\n",
              static_cast<unsigned long long>(solves), uniques);

  if (!args.trace) {
    report.metric("latency_ms_p50", median(ref.miss), "ms");
    report.metric("latency_ms_p99", quantile(ref.miss, missQ), "ms");
    report.metric("throughput_per_s", answeredPerSecond, "1/s");
    report.metric("slowdown_mean",
                  valueCount > 0 ? valueSum / static_cast<double>(valueCount)
                                 : 0,
                  "ratio");
    report.metric("ok_share", 1.0 - failShare, "share");
    report.metric("setup_s", median(setupSamples), "s");
    return;
  }

  // ---- traced run: the reference level again on a fresh server, with a
  // span per client call, then the in-process probes on the same stream.
  const Stream& stream = streams.front();
  const std::vector<Outcome>& outcomes = traceBase.outcomes;
  Tracer::enable(true);
  const SegmentResult traced = runSegment(levels.front(), stream,
                                          args.workdir, args.seed * 100,
                                          report);
  LevelStats tracedStats;
  tracedStats.add(stream, traced.outcomes, traced.seconds);

  // In-process handle() on the same stream, sequentially.
  std::vector<double> handleMs(stream.plan.size());
  {
    serve::SchedulerService service(serverOptions(socket, journal).service);
    for (std::size_t i = 0; i < stream.plan.size(); ++i) {
      const Clock::time_point t = Clock::now();
      const Span s("serve.handle", i + 1);
      (void)service.handle(stream.instances[stream.plan[i].instance]);
      handleMs[i] = secondsSince(t) * 1e3;
    }
  }
  std::filesystem::remove(journal);
  // Codec round trips and journal appends of answer-sized payloads.
  {
    std::optional<util::JournalWriter> writer;
    writer.emplace(util::JournalWriter::create(journal));
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const Outcome& o = outcomes[i];
      if (!o.ok) continue;
      const serve::ScheduleRequest& request =
          stream.instances[stream.plan[i].instance];
      std::string encoded;
      {
        const Span s("serve.codec");
        (void)serve::decodeScheduleRequest(serve::encodeScheduleRequest(request));
        encoded = serve::encodeScheduleResponse(*o.response);
        (void)serve::decodeScheduleResponse(encoded);
      }
      if (o.cached) continue;
      util::PayloadWriter record;
      record.u64(o.response->fingerprint);
      record.str(encoded);
      const Span s("util.journal_append");
      writer->write(serve::kServeAnswerRecord, serve::kServeAnswerVersion,
                    record);
      writer->flush();
    }
  }
  std::filesystem::remove(journal);
  // Decomposed solves of every fourth fresh instance of the reference level.
  DecomposedStep sum;
  std::size_t decomposed = 0;
  for (std::size_t i = 0; i < stream.plan.size(); ++i) {
    const Planned& p = stream.plan[i];
    const Outcome& o = outcomes[i];
    if (p.repeat || p.instance % 4 != 0 || !o.ok) continue;
    const serve::ScheduleRequest& request = stream.instances[p.instance];
    core::MachineHistory history =
        request.history.empty()
            ? core::MachineHistory::empty(request.machine, request.now)
            : core::MachineHistory::fromEntries(request.history);
    const sim::StepSnapshot snapshot = tip::makeRequestSnapshot(
        std::move(history), request.jobs, request.now, request.metric);
    tip::SupervisedOptions solve = serverOptions(socket, journal).service.solve;
    util::SolveBudget budget;
    budget.maxNodes = request.maxNodes;
    const DecomposedStep d =
        decomposeStep(snapshot, solve, budget, i + 1, report);
    sum.add(d);
    // Where the server answered from the ILP, the decomposition must give
    // the same schedule; a capped solve without an incumbent falls back.
    const serve::ScheduleResponse& served = *o.response;
    if (served.rung == tip::SolveRung::Optimal ||
        served.rung == tip::SolveRung::IncumbentGap) {
      bool same = d.solved && d.schedule.size() == served.schedule.size();
      for (const serve::PlacedJob& placed : served.schedule) {
        const core::ScheduledJob* entry =
            same ? d.schedule.find(placed.id) : nullptr;
        same = same && entry != nullptr && entry->start == placed.start;
      }
      report.check(same, "serve_mix: decomposed solve of instance " +
                             std::to_string(p.instance) +
                             " differs from the served answer");
    }
    ++decomposed;
  }
  Tracer::enable(false);
  report.check(Tracer::write(args.workdir + "/spans-serve_mix.csv"),
               "cannot write the span log to " + args.workdir);
  if (decomposed > 0) reportDecomposition(sum, decomposed, report);

  std::vector<double> solveMs, overheadMs, transportMs;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    if (!o.ok) continue;
    if (!o.cached) {
      solveMs.push_back(o.solveMs);
      overheadMs.push_back(o.latencyMs - o.solveMs);
    } else {
      transportMs.push_back(o.rttMs - handleMs[i]);
    }
  }
  const double untracedP50 = median(ref.miss);
  const double tracedP50 = median(tracedStats.miss);
  std::printf("ratio trace.overhead_share = traced miss p50 %.4f ms / "
              "untraced miss p50 %.4f ms - 1 (the overhead shows in each "
              "request's latency)\n",
              tracedP50, untracedP50);
  std::printf("definitions: serve.overhead_ms_p50 = median over misses of "
              "(client latency - ScheduleResponse::seconds); "
              "serve.transport_ms_p50 = median over hits of (client send-to-"
              "reply time - in-process handle() time of the same request)\n");
  const char* rungNames[tip::kSolveRungs] = {
      "tip.rung_optimal", "tip.rung_incumbent_gap", "tip.rung_coarsened_retry",
      "tip.rung_policy_fallback"};
  for (int r = 0; r < tip::kSolveRungs; ++r) {
    report.metric(rungNames[r], static_cast<double>(traceBase.health.rungCount[r]),
                  "count");
  }
  report.metric("serve.hit_ms_p50", median(ref.hit), "ms");
  report.metric("serve.hit_ms_p99", quantile(ref.hit, hitQ), "ms");
  report.metric("serve.fail_share", failShare, "share");
  report.metric("serve.solve_ms_p50", median(solveMs), "ms");
  report.metric("serve.solve_ms_p99",
                quantile(solveMs, tailQuantile(solveMs.size())), "ms");
  report.metric("serve.overhead_ms_p50", median(overheadMs), "ms");
  report.metric("serve.handle_ms_p50", median(handleMs), "ms");
  report.metric("serve.transport_ms_p50", median(transportMs), "ms");
  report.metric("serve.codec_us", median(Tracer::stats("serve.codec").durations) * 1e6,
                "us");
  report.metric("serve.hit_ratio",
                repeats > 0 ? static_cast<double>(hits) /
                                  static_cast<double>(repeats)
                            : 0,
                "share");
  report.metric("serve.solves_per_unique",
                static_cast<double>(solves) /
                    static_cast<double>(uniques),
                "ratio");
  report.metric("serve.shed_attempts", static_cast<double>(shed),
                "count");
  report.metric("serve.generator_late_ms_p99",
                quantile(ref.late, tailQuantile(ref.late.size())), "ms");
  report.metric("util.journal_append_us",
                median(Tracer::stats("util.journal_append").durations) * 1e6, "us");
  report.metric("analysis.models_linted",
                static_cast<double>(analysis::modelLintStats().modelsLinted -
                                    lintBefore),
                "count");
  report.metric("trace.overhead_share", tracedP50 / untracedP50 - 1.0,
                "share");
  report.metric("trace.spans", static_cast<double>(Tracer::count()), "count");
}

}  // namespace perfbench
