#include "traced_stack.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baselines/nettube.h"
#include "baselines/pavod.h"
#include "core/socialtube.h"
#include "fault/injector.h"
#include "fault/invariants.h"
#include "fault/recovery.h"
#include "fault/schedule.h"
#include "net/latency.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "snapshot/codec.h"
#include "vod/context.h"
#include "vod/library.h"
#include "vod/metrics.h"
#include "vod/releases.h"
#include "vod/selector.h"
#include "vod/session.h"
#include "vod/system.h"
#include "vod/transfer.h"

namespace perfbench {

namespace {

namespace exp = st::exp;
namespace sim = st::sim;
namespace vod = st::vod;
using st::EndpointId;
using st::FlowId;
using st::UserId;

std::unique_ptr<st::net::LatencyModel> makeLatency(
    const exp::ExperimentConfig& config) {
  if (config.mode == exp::Mode::kPlanetLab) {
    return std::make_unique<st::net::WideAreaLatencyModel>(
        config.seed, /*medianMs=*/80.0, /*sigma=*/0.6, /*lossRate=*/0.01);
  }
  return std::make_unique<st::net::CleanLatencyModel>(
      config.seed, 10 * sim::kMillisecond, 80 * sim::kMillisecond);
}

std::unique_ptr<vod::VodSystem> makeSystem(exp::SystemKind kind,
                                           vod::SystemContext& ctx,
                                           vod::TransferManager& transfers) {
  switch (kind) {
    case exp::SystemKind::kSocialTube:
      return std::make_unique<st::core::SocialTubeSystem>(ctx, transfers);
    case exp::SystemKind::kNetTube:
      return std::make_unique<st::baselines::NetTubeSystem>(ctx, transfers);
    case exp::SystemKind::kPaVod:
      return std::make_unique<st::baselines::PaVodSystem>(ctx, transfers);
  }
  return nullptr;
}

// The runner's ServerSampler: the origin server's membership-state size
// every 30 simulated minutes, as a kRunner periodic event.
class ServerSampler final : public sim::EventFactory {
 public:
  ServerSampler(sim::Simulator& simulator, vod::VodSystem& system)
      : sim_(simulator), system_(system) {
    sim_.registerFactory(sim::Component::kRunner, this);
  }
  ~ServerSampler() override {
    if (sim_.factory(sim::Component::kRunner) == this) {
      sim_.registerFactory(sim::Component::kRunner, nullptr);
    }
  }
  ServerSampler(const ServerSampler&) = delete;
  ServerSampler& operator=(const ServerSampler&) = delete;

  [[nodiscard]] sim::Callback rebuild(const sim::EventTag& tag) override {
    (void)tag;
    return [this] {
      stats_.add(
          static_cast<double>(system_.statsSnapshot().serverRegistrations));
    };
  }

  void arm() {
    sim_.schedulePeriodicTagged(30 * sim::kMinute,
                                sim::makeTag(sim::Component::kRunner, 0));
  }

  [[nodiscard]] const st::RunningStats& stats() const { return stats_; }

 private:
  sim::Simulator& sim_;
  vod::VodSystem& system_;
  st::RunningStats stats_;
};

// Counts every flow's fate; with overload control on it also feeds the
// runner's "server.shed" counter, as the runner's ShedRecorder does.
class FlowCounter final : public st::net::FlowObserver {
 public:
  FlowCounter(st::net::FlowNetwork& flows, EndpointId server,
              st::obs::Counter* serverShed)
      : flows_(flows), server_(server), serverShed_(serverShed) {
    flows_.addObserver(this);
  }
  ~FlowCounter() override { flows_.removeObserver(this); }
  FlowCounter(const FlowCounter&) = delete;
  FlowCounter& operator=(const FlowCounter&) = delete;

  void onFlowShed(EndpointId src, EndpointId, st::net::FlowClass) override {
    ++sheds;
    if (serverShed_ != nullptr && src == server_) serverShed_->inc();
  }
  void onFlowAborted(FlowId, std::uint64_t) override { ++aborts; }
  void onFlowCompleted(FlowId) override { ++completions; }

  std::uint64_t completions = 0;
  std::uint64_t aborts = 0;
  std::uint64_t sheds = 0;

 private:
  st::net::FlowNetwork& flows_;
  EndpointId server_;
  st::obs::Counter* serverShed_;
};

}  // namespace

TracedRun runTraced(const exp::ExperimentConfig& config, exp::SystemKind kind,
                    const st::trace::Catalog& catalog,
                    Attribution& attribution) {
  TracedRun out;
  const std::int64_t buildStart = attribution.now();

  // Construction mirrors exp::runExperiment line for line (monolithic
  // engine, no snapshot, no trace sink).
  sim::Simulator simulator;
  st::net::Network network(simulator, makeLatency(config), config.seed);
  vod::VideoLibrary library(catalog, config.vod);
  vod::Metrics metrics(catalog.userCount(), config.vod.videosPerSession);
  st::obs::Registry& registry = metrics.registry();
  simulator.registerInto(registry);
  network.registerInto(registry);

  vod::SystemContext ctx(simulator, network, catalog, library, config.vod,
                         metrics, config.seed);
  vod::TransferManager transfers(ctx);
  const std::unique_ptr<vod::VodSystem> system =
      makeSystem(kind, ctx, transfers);
  vod::VideoSelector selector(catalog, config.vod, config.seed);
  selector.attachContext(ctx);
  vod::SessionDriver driver(ctx, *system, transfers, selector, config.seed);

  std::optional<st::fault::Injector> injector;
  std::optional<st::fault::InvariantChecker> checker;
  std::optional<st::fault::RecoveryManager> recovery;
  if (config.faults.any()) {
    st::fault::Schedule schedule;
    std::string error;
    if (!st::fault::Schedule::parse(config.faults.spec, &schedule, &error)) {
      std::fprintf(stderr, "invalid fault spec: %s\n", error.c_str());
      std::abort();
    }
    const bool hasRejoin = schedule.has(st::fault::FaultKind::kRejoin);
    injector.emplace(ctx, std::move(schedule), config.seed);
    injector->setCrashHandler(
        [&driver](UserId user) { driver.crashUser(user); });
    if (hasRejoin) {
      st::fault::RecoveryOptions options;
      options.graceHorizon = config.faults.graceHorizon;
      recovery.emplace(ctx, *system, transfers, options);
      injector->setRejoinHandler([&driver, &recovery](UserId user) {
        driver.rejoinUser(user);
        recovery->onRejoin(user);
      });
      injector->setRecovery(&*recovery);
    }
    if (config.faults.auditInterval > 0) {
      st::fault::CheckerOptions options;
      options.auditInterval = config.faults.auditInterval;
      options.graceHorizon = config.faults.graceHorizon;
      options.onViolation = [&simulator](const vod::AuditViolation& v) {
        std::fprintf(stderr,
                     "invariant violation t=%lld rule=%s actor=%u subject=%u\n",
                     static_cast<long long>(simulator.now()), v.rule.c_str(),
                     v.actor, v.subject);
      };
      checker.emplace(ctx, *system, transfers, std::move(options));
    }
  }

  vod::ReleaseManager releases(ctx, selector,
                               config.releases.feedWatchProbability,
                               config.seed);
  if (config.releases.perChannel > 0) {
    std::fprintf(stderr, "perfbench: dynamic releases are not mirrored\n");
    std::abort();
  }

  registry.addGauge("server_bytes", [&network, &ctx] {
    return network.flows().bytesUploaded(ctx.serverEndpoint());
  });
  registry.addGauge("sessions_completed",
                    [&driver] { return driver.sessionsCompleted(); });
  registry.addGauge("releases_fired",
                    [&releases] { return releases.releasesFired(); });
  registry.addGauge("feed_notifications",
                    [&releases] { return releases.feedNotifications(); });
  registry.addGauge("feed_watches",
                    [&selector] { return selector.feedWatches(); });

  const bool overload = config.vod.overload.any();
  FlowCounter flowCounter(network.flows(), ctx.serverEndpoint(),
                          overload ? &registry.counter("server.shed")
                                   : nullptr);
  if (overload) {
    registry.addGauge("prefetch.throttled",
                      [&metrics] { return metrics.prefetchThrottled(); });
    registry.addGauge("breaker.opened",
                      [&ctx] { return ctx.breakers().opened(); });
    registry.addGauge("breaker.closed",
                      [&ctx] { return ctx.breakers().closed(); });
    registry.addGauge("breaker.half_open",
                      [&ctx] { return ctx.breakers().halfOpened(); });
    registry.addGauge("breaker.open",
                      [&ctx] { return ctx.breakers().openNow(); });
    registry.addGauge("slo.stall_count",
                      [&metrics] { return metrics.stallCount(); });
    registry.addGauge("slo.stall_ms", [&metrics] {
      return static_cast<std::uint64_t>(metrics.stallSeconds() * 1000.0);
    });
    registry.addGauge("slo.rebuffer_ratio_ppm", [&metrics] {
      return static_cast<std::uint64_t>(metrics.rebufferRatio() * 1e6);
    });
    registry.addGauge("slo.startup_p99_ms", [&metrics] {
      return static_cast<std::uint64_t>(
          metrics.startupDelayMs().percentile(99));
    });
    const double sloTarget = config.vod.overload.rebufferSloRatio;
    registry.addGauge("slo.rebuffer_within_target", [&metrics, sloTarget] {
      return metrics.rebufferRatio() <= sloTarget ? 1 : 0;
    });
  }

  ServerSampler sampler(simulator, *system);

  // Every factory is registered and nothing is scheduled yet: from here on
  // each rebuilt callback is timed. The scheduling calls below keep the
  // runner's order (injector, checker, sessions, sampler).
  if (simulator.pendingEvents() != 0) {
    std::fprintf(stderr, "perfbench: events scheduled before timing began\n");
    std::abort();
  }
  TimedFactories timed(simulator, attribution);
  if (injector) injector->arm();
  if (checker) checker->arm();
  driver.start();
  sampler.arm();
  const std::int64_t loopStart = attribution.now();
  out.buildNs = loopStart - buildStart;

  simulator.runUntil(config.duration);
  const std::int64_t loopEnd = attribution.now();
  attribution.close();
  out.loopNs = loopEnd - loopStart;

  exp::ExperimentResult& result = out.result;
  result.system = std::string(system->name());
  result.mode = config.mode;
  result.seed = config.seed;
  result.normalizedPeerBandwidth = metrics.normalizedPeerBandwidth();
  result.startupDelayMs = metrics.startupDelayMs();
  result.linksByVideosWatched = metrics.linksByVideosWatched();
  result.redundantLinks = metrics.redundantLinks();
  result.serverRegistrations = sampler.stats();
  {
    std::vector<double> uploads;
    uploads.reserve(catalog.userCount());
    for (std::size_t i = 0; i < catalog.userCount(); ++i) {
      uploads.push_back(static_cast<double>(network.flows().bytesUploaded(
          EndpointId{static_cast<std::uint32_t>(i)})));
    }
    result.uploadGini = st::giniCoefficient(uploads);
  }
  {
    st::snapshot::Writer w;
    switch (kind) {
      case exp::SystemKind::kSocialTube:
        static_cast<st::core::SocialTubeSystem&>(*system).saveState(w);
        break;
      case exp::SystemKind::kNetTube:
        static_cast<st::baselines::NetTubeSystem&>(*system).saveState(w);
        break;
      case exp::SystemKind::kPaVod:
        static_cast<st::baselines::PaVodSystem&>(*system).saveState(w);
        break;
    }
    result.overlayFingerprint =
        st::snapshot::crc32(w.body().data(), w.body().size());
  }
  result.counters = registry.snapshot();
  out.extractNs = attribution.now() - loopEnd;

  out.eventsFired = simulator.eventsFired();
  out.flowRecomputations = network.flows().rateRecomputations();
  out.flowCompletions = flowCounter.completions;
  out.flowAborts = flowCounter.aborts;
  out.flowSheds = flowCounter.sheds;
  return out;
}

}  // namespace perfbench
