// perfbench: one workload pass of the host-cost benchmark.
//
//   perfbench run    --workload NAME --seed N   untraced pass, end-to-end
//   perfbench setup  --workload NAME --seed N   set-up only (trace + stacks)
//   perfbench traced --workload NAME --seed N   untraced pass, then the
//                                                traced replica; per-layer
//
// Each pass runs PA-VoD, SocialTube and NetTube one after another on one
// trace catalog, in this single thread, and prints one JSON object as its
// last stdout line. perfbench/run.py drives the passes, one process each,
// and aggregates them. Bad arguments exit 2.
#include <array>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "attribution.h"
#include "exp/runner.h"
#include "probe.h"
#include "results.h"
#include "trace/generator.h"
#include "traced_stack.h"
#include "workloads.h"

namespace {

namespace exp = st::exp;
using perfbench::Attribution;
using st::sim::Component;

constexpr std::array<exp::SystemKind, 3> kSystems = {
    exp::SystemKind::kPaVod, exp::SystemKind::kSocialTube,
    exp::SystemKind::kNetTube};
constexpr std::array<const char*, 3> kSystemKeys = {"pavod", "socialtube",
                                                    "nettube"};
constexpr std::size_t kSocialTube = 1;

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double phaseSeconds(const exp::ExperimentResult& r, std::string_view name) {
  for (const auto& phase : r.phases) {
    if (phase.name == name) return phase.ms * 1e-3;
  }
  return 0.0;
}

// Peak resident set of this process image. VmHWM, not getrusage: Linux
// carries ru_maxrss across execve, so a child would report its launcher's
// peak when that was larger.
double peakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

std::uint64_t sum(const std::vector<exp::ExperimentResult>& results,
                  std::string_view counter) {
  std::uint64_t total = 0;
  for (const auto& r : results) total += r.counters.at(counter);
  return total;
}

// Ordered name -> number pairs printed as one JSON object.
class JsonObject {
 public:
  void num(std::string name, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    fields_.emplace_back(std::move(name), buf);
  }
  void integer(std::string name, std::uint64_t value) {
    fields_.emplace_back(std::move(name), std::to_string(value));
  }
  void str(std::string name, const std::string& value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (c == '\n' ? ' ' : c);
    }
    fields_.emplace_back(std::move(name), quoted + "\"");
  }
  void raw(std::string name, std::string json) {
    fields_.emplace_back(std::move(name), std::move(json));
  }
  [[nodiscard]] std::string text() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}

// Generates the catalog and runs the three systems through exp::runExperiment,
// probing the host's speed before the pass and after each system.
struct UntracedPass {
  std::int64_t traceGenNs = 0;
  // Trace generation plus the three runExperiment calls; the probes between
  // them are not counted.
  std::int64_t wallNs = 0;
  std::vector<double> probes;
  std::vector<exp::ExperimentResult> results;

  [[nodiscard]] double setupSeconds() const {
    double total = seconds(traceGenNs);
    for (const auto& r : results) total += phaseSeconds(r, "setup");
    return total;
  }
  [[nodiscard]] double loopSeconds() const {
    double total = 0.0;
    for (const auto& r : results) total += phaseSeconds(r, "event_loop");
    return total;
  }
  // Host seconds to reference seconds (see probe.h).
  [[nodiscard]] double toReference() const {
    double total = 0.0;
    for (const double p : probes) total += p;
    return perfbench::kProbeReferenceSeconds /
           (total / static_cast<double>(probes.size()));
  }
};

UntracedPass runUntraced(const exp::ExperimentConfig& config) {
  UntracedPass pass;
  pass.probes.push_back(perfbench::probeSeconds());
  std::int64_t start = perfbench::steadyNowNs();
  const st::trace::Catalog catalog = st::trace::generateTrace(config.trace);
  pass.traceGenNs = perfbench::steadyNowNs() - start;
  pass.wallNs = pass.traceGenNs;
  for (const exp::SystemKind kind : kSystems) {
    start = perfbench::steadyNowNs();
    pass.results.push_back(exp::runExperiment(config, kind, &catalog));
    pass.wallNs += perfbench::steadyNowNs() - start;
    pass.probes.push_back(perfbench::probeSeconds());
  }
  return pass;
}

// The checks every pass makes: zero invariant violations and the paper's
// seed-robust orderings. Returns "" when all pass.
std::string checkPass(const std::vector<exp::ExperimentResult>& results) {
  std::string errors;
  for (const auto& r : results) {
    if (r.counters.at("invariant.violations") != 0) {
      errors += r.system + " reported invariant violations; ";
    }
    if (r.sessionsCompleted() == 0 || r.watches() == 0) {
      errors += r.system + " completed no sessions; ";
    }
  }
  return errors + perfbench::checkOrderings(results);
}

// Prints the workload's sim_digest and records it in `out`.
void printDigest(const std::vector<exp::ExperimentResult>& results,
                 std::string_view workload, std::uint64_t seed,
                 JsonObject& out) {
  std::vector<std::uint32_t> parts;
  for (const auto& r : results) parts.push_back(perfbench::simDigest(r));
  const std::string digest = hex32(perfbench::combineDigests(parts));
  std::printf("sim_digest %.*s seed=%" PRIu64 " %s\n",
              static_cast<int>(workload.size()), workload.data(), seed,
              digest.c_str());
  out.str("sim_digest", digest);
}

int runMode(const exp::ExperimentConfig& config, std::string_view workload,
            std::uint64_t seed) {
  const UntracedPass pass = runUntraced(config);
  const auto& results = pass.results;
  const exp::ExperimentResult& social = results[kSocialTube];
  const perfbench::Percentile p99 =
      perfbench::percentileOf(social.startupDelayMs, 99.0);
  std::printf("st.startup_delay_ms mean=%.6g %s\n",
              social.startupDelayMs.mean(), p99.describe().c_str());

  JsonObject out;
  out.str("mode", "run");
  const std::string errors = checkPass(results);
  out.raw("correct", errors.empty() ? "true" : "false");
  out.str("errors", errors);
  printDigest(results, workload, seed, out);
  out.integer("watches", sum(results, "watches"));
  const double scale = pass.toReference();
  out.num("wall_s", seconds(pass.wallNs) * scale);
  out.num("setup_s", pass.setupSeconds() * scale);
  out.num("sessions_per_s",
          ratio(static_cast<double>(sum(results, "sessions_completed")),
                pass.loopSeconds() * scale));
  out.num("host_wall_s", seconds(pass.wallNs));
  out.num("to_reference", scale);
  out.num("peak_rss_mb", peakRssMb());
  out.num("st.peer_fraction", social.aggregatePeerFraction());
  out.num("st.startup_mean_ms", social.startupDelayMs.mean());
  out.num("st.links_final", social.linksByVideosWatched.empty()
                                ? 0.0
                                : social.linksByVideosWatched.back().mean());
  std::printf("%s\n", out.text().c_str());
  return 0;
}

int setupMode(exp::ExperimentConfig config) {
  // A zero horizon: the runner builds the whole stack and schedules the
  // first events exactly as in a full run, then fires only t=0 events.
  config.duration = 0;
  const UntracedPass pass = runUntraced(config);
  JsonObject out;
  out.str("mode", "setup");
  out.num("setup_s", pass.setupSeconds() * pass.toReference());
  std::printf("%s\n", out.text().c_str());
  return 0;
}

// Names the first counter that differs between two snapshots.
std::string counterDiff(const st::obs::Snapshot& a,
                        const st::obs::Snapshot& b) {
  for (const auto& entry : a.entries()) {
    if (!b.has(entry.name) || b.at(entry.name) != entry.value) {
      return entry.name + " " + std::to_string(entry.value) + " vs " +
             std::to_string(b.at(entry.name));
    }
  }
  for (const auto& entry : b.entries()) {
    if (!a.has(entry.name)) return entry.name + " only in the traced run";
  }
  return "";
}

void printSpan(const char* system, const char* name, double start,
               double duration) {
  std::printf("span {\"system\": \"%s\", \"name\": \"%s\", \"start_s\": %.6f, "
              "\"dur_s\": %.6f}\n",
              system, name, start, duration);
}

int tracedMode(const exp::ExperimentConfig& config, std::string_view workload,
               std::uint64_t seed) {
  const UntracedPass pass = runUntraced(config);
  std::string errors = checkPass(pass.results);

  const std::int64_t origin = perfbench::steadyNowNs();
  const st::trace::Catalog catalog = st::trace::generateTrace(config.trace);
  const std::int64_t traceGenNs = perfbench::steadyNowNs() - origin;
  printSpan("all", "trace_gen", 0.0, seconds(traceGenNs));

  struct SystemCosts {
    perfbench::TracedRun run;
    std::array<perfbench::ComponentCost, st::sim::kComponentCount> costs{};
    std::uint64_t scheduled = 0;
    std::uint64_t cancelled = 0;
    std::int64_t simSelfNs = 0;
  };
  std::vector<SystemCosts> systems;
  std::vector<exp::ExperimentResult> tracedResults;
  for (std::size_t i = 0; i < kSystems.size(); ++i) {
    Attribution attribution;
    const std::int64_t start = perfbench::steadyNowNs() - origin;
    SystemCosts costs{perfbench::runTraced(config, kSystems[i], catalog,
                                           attribution)};
    for (std::size_t c = 0; c < st::sim::kComponentCount; ++c) {
      costs.costs[c] = attribution.cost(static_cast<Component>(c));
    }
    costs.scheduled = attribution.scheduled();
    costs.cancelled = attribution.cancelled();
    costs.simSelfNs = attribution.simSelfNs(costs.run.loopNs);
    if (costs.run.eventsFired != attribution.eventRuns()) {
      std::printf("note %s: %" PRIu64 " fired events were untagged\n",
                  kSystemKeys[i],
                  costs.run.eventsFired - attribution.eventRuns());
    }
    const double s = seconds(start);
    const double build = seconds(costs.run.buildNs);
    const double loop = seconds(costs.run.loopNs);
    printSpan(kSystemKeys[i], "build", s, build);
    printSpan(kSystemKeys[i], "run_until", s + build, loop);
    printSpan(kSystemKeys[i], "extract", s + build + loop,
              seconds(costs.run.extractNs));

    // The traced replica must reproduce runExperiment exactly.
    const exp::ExperimentResult& untraced = pass.results[i];
    const exp::ExperimentResult& replica = costs.run.result;
    if (!(replica.counters == untraced.counters)) {
      errors += replica.system + " traced counters differ from the runner's (" +
                counterDiff(untraced.counters, replica.counters) + "); ";
    }
    if (replica.overlayFingerprint != untraced.overlayFingerprint) {
      errors += replica.system + " traced overlay fingerprint differs; ";
    }
    if (perfbench::simDigest(replica) != perfbench::simDigest(untraced)) {
      errors += replica.system + " traced sim_digest differs; ";
    }
    tracedResults.push_back(replica);
    systems.push_back(std::move(costs));
  }

  JsonObject m;
  auto selfS = [&](Component c) {
    std::int64_t ns = 0;
    for (const auto& s : systems) ns += s.costs[static_cast<std::size_t>(c)].selfNs;
    return seconds(ns);
  };
  auto runs = [&](Component c) {
    std::uint64_t n = 0;
    for (const auto& s : systems) n += s.costs[static_cast<std::size_t>(c)].runs;
    return n;
  };
  const auto& results = pass.results;
  const exp::ExperimentResult& social = results[kSocialTube];
  std::uint64_t fired = 0, scheduled = 0, cancelled = 0;
  std::uint64_t recomputations = 0, completions = 0, aborts = 0, sheds = 0;
  std::int64_t simSelfNs = 0, tracedLoopNs = 0, buildNs = 0;
  for (const auto& s : systems) {
    fired += s.run.eventsFired;
    scheduled += s.scheduled;
    cancelled += s.cancelled;
    recomputations += s.run.flowRecomputations;
    completions += s.run.flowCompletions;
    aborts += s.run.flowAborts;
    sheds += s.run.flowSheds;
    simSelfNs += s.simSelfNs;
    tracedLoopNs += s.run.loopNs;
    buildNs += s.run.buildNs;
  }
  const auto dfired = static_cast<double>(fired);
  const double watches = static_cast<double>(sum(results, "watches"));

  m.num("trace.gen_s", seconds(traceGenNs));
  m.num("exp.build_s", seconds(buildNs));
  m.num("core.loop_s", phaseSeconds(results[1], "event_loop"));
  m.num("baselines.nettube.loop_s", phaseSeconds(results[2], "event_loop"));
  m.num("baselines.pavod.loop_s", phaseSeconds(results[0], "event_loop"));

  m.integer("sim.events_fired", fired);
  m.integer("sim.events_scheduled", scheduled);
  m.integer("sim.events_cancelled", cancelled);
  m.num("sim.cancels_per_fire", ratio(static_cast<double>(cancelled), dfired));
  m.num("sim.self_s", seconds(simSelfNs));
  m.num("sim.ns_per_event", ratio(static_cast<double>(simSelfNs), dfired));

  m.num("net.flow.self_s", selfS(Component::kFlow));
  m.integer("net.flow.recomputations", recomputations);
  m.num("net.flow.recomputes_per_completion",
        ratio(static_cast<double>(recomputations),
              static_cast<double>(completions)));
  m.integer("net.flow.completions", completions);
  m.integer("net.flow.aborts", aborts);
  m.integer("net.flow.sheds", sheds);
  m.integer("net.messages_sent", sum(results, "messages_sent"));
  m.integer("net.messages_faulted", sum(results, "messages_faulted"));

  m.num("vod.session.self_s", selfS(Component::kSession));
  m.num("vod.transfer.self_s", selfS(Component::kTransfer));
  m.integer("vod.transfer.events", runs(Component::kTransfer));
  m.num("vod.cache_hit_ratio",
        ratio(static_cast<double>(sum(results, "cache_hits")), watches));
  m.num("vod.prefetch_hit_ratio",
        ratio(static_cast<double>(sum(results, "prefetch_hits")),
              static_cast<double>(sum(results, "prefetch_issued"))));
  m.num("vod.server_fallback_ratio",
        ratio(static_cast<double>(sum(results, "server_fallbacks")), watches));
  m.integer("vod.server_shed", sum(results, "server.shed"));
  m.integer("vod.breaker_opened", sum(results, "breaker.opened"));
  m.integer("vod.prefetch_throttled", sum(results, "prefetch.throttled"));
  m.num("vod.startup_fail_share",
        ratio(static_cast<double>(sum(results, "startup_timeouts")), watches));
  const perfbench::Percentile p99 =
      perfbench::percentileOf(social.startupDelayMs, 99.0);
  std::printf("st.startup_delay_ms %s\n", p99.describe().c_str());
  m.num("st.startup_p99_ms", p99.value);
  m.num("st.rebuffer_rate", social.rebufferRate());

  const double socialHits =
      static_cast<double>(social.channelHits() + social.categoryHits());
  m.num("core.self_s", selfS(Component::kSocialTube));
  m.integer("core.events", runs(Component::kSocialTube));
  m.integer("core.probes", social.probes());
  m.integer("core.repairs", social.repairs());
  m.num("core.search_hit_ratio",
        ratio(socialHits,
              socialHits + static_cast<double>(social.serverFallbacks())));
  m.num("core.messages_per_watch",
        ratio(static_cast<double>(social.messagesSent()),
              static_cast<double>(social.watches())));
  m.num("baselines.nettube.self_s", selfS(Component::kNetTube));
  m.integer("baselines.nettube.events", runs(Component::kNetTube));
  m.integer("baselines.nettube.probes", results[2].probes());
  m.num("baselines.pavod.self_s", selfS(Component::kPaVod));
  m.integer("baselines.pavod.events", runs(Component::kPaVod));

  m.num("fault.injector.self_s", selfS(Component::kFault));
  m.num("fault.invariants.self_s", selfS(Component::kInvariants));
  m.num("fault.recovery.self_s", selfS(Component::kRecovery));
  m.integer("fault.audits", sum(results, "invariant.audits"));
  m.integer("fault.recovery.rounds", sum(results, "recovery.rounds"));
  m.integer("fault.violations", sum(results, "invariant.violations"));

  m.num("obs.trace_overhead",
        ratio(seconds(tracedLoopNs), pass.loopSeconds()) - 1.0);

  // Shared layers, split by system.
  for (std::size_t i = 0; i < systems.size(); ++i) {
    const SystemCosts& s = systems[i];
    const std::string suffix = std::string(".") + kSystemKeys[i];
    m.integer("sim.events_fired" + suffix, s.run.eventsFired);
    m.num("sim.cancels_per_fire" + suffix,
          ratio(static_cast<double>(s.cancelled),
                static_cast<double>(s.run.eventsFired)));
    m.num("sim.self_s" + suffix, seconds(s.simSelfNs));
    m.num("net.flow.self_s" + suffix,
          seconds(s.costs[static_cast<std::size_t>(Component::kFlow)].selfNs));
    m.integer("net.flow.recomputations" + suffix, s.run.flowRecomputations);
    m.integer("net.flow.completions" + suffix, s.run.flowCompletions);
  }

  JsonObject out;
  out.str("mode", "traced");
  out.raw("correct", errors.empty() ? "true" : "false");
  out.str("errors", errors);
  printDigest(tracedResults, workload, seed, out);
  out.integer("watches", static_cast<std::uint64_t>(watches));
  out.raw("metrics", m.text());
  std::printf("%s\n", out.text().c_str());
  return 0;
}

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench run|setup|traced --workload NAME --seed N\n",
               message);
  return 2;
}

// Strict unsigned 64-bit decimal: digits only, no sign, no overflow.
bool parseSeed(const char* text, std::uint64_t* out) {
  if (text == nullptr || *text < '0' || *text > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno == ERANGE || end == text || *end != '\0') return false;
  *out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage("missing mode");
  const std::string_view mode = argv[1];
  std::string_view workload;
  std::uint64_t seed = 0;
  bool haveSeed = false;
  for (int i = 2; i < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return usage("flag without a value");
    if (flag == "--workload") {
      workload = argv[i + 1];
    } else if (flag == "--seed") {
      if (!parseSeed(argv[i + 1], &seed)) {
        std::fprintf(stderr,
                     "perfbench: --seed '%s' is not an integer in "
                     "[0, 18446744073709551615]\n",
                     argv[i + 1]);
        return 2;
      }
      haveSeed = true;
    } else {
      return usage("unknown flag");
    }
  }
  if (!haveSeed) return usage("missing --seed");
  const auto config = perfbench::workloadConfig(workload, seed);
  if (!config) {
    std::string names;
    for (const std::string_view name : perfbench::workloadNames()) {
      names += " ";
      names += name;
    }
    std::fprintf(stderr, "perfbench: unknown workload '%.*s' (known:%s)\n",
                 static_cast<int>(workload.size()), workload.data(),
                 names.c_str());
    return 2;
  }
  if (mode == "run") return runMode(*config, workload, seed);
  if (mode == "setup") return setupMode(*config);
  if (mode == "traced") return tracedMode(*config, workload, seed);
  return usage("unknown mode");
}
