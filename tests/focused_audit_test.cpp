// Focused audits (vod/audit.h): the report a walk builds for one focus user
// must equal the full walk's report filtered by AuditViolation::involves —
// the same violations in the same order. Checked for every user (online
// and offline) at several instants of a crash/rejoin storm on each of the
// three systems, under the real repair horizon and under zero grace (every
// link to an offline node counts as stale), then once more after seeding
// asymmetric, duplicate, self and stale links and forged watches.
#include "vod/audit.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "baselines/nettube.h"
#include "baselines/pavod.h"
#include "core/socialtube.h"
#include "fault/recovery.h"
#include "harness.h"
#include "util/rng.h"
#include "vod/selector.h"
#include "vod/session.h"

namespace st::vod {

// gtest prints a mismatching violation list through this.
void PrintTo(const AuditViolation& v, std::ostream* os) {
  *os << v.rule << "(actor=" << v.actor << ", subject=" << v.subject
      << (v.subjectIsUser ? " [user]" : "")
      << (v.transient ? ", transient" : "") << ")";
}

namespace {

using st::testing::Stack;
using st::testing::miniCatalog;

TEST(AuditViolation, InvolvesMatchesSubjectOnlyWhenItIsAUser) {
  const AuditViolation cap{"st.inner_cap", 3, 7, false, false};
  EXPECT_TRUE(cap.involves(UserId{3}));
  // A count (or video, or channel) equal to a user's id is not that user.
  EXPECT_FALSE(cap.involves(UserId{7}));
  const AuditViolation asym{"st.inner_asym", 3, 7, true, true};
  EXPECT_TRUE(asym.involves(UserId{3}));
  EXPECT_TRUE(asym.involves(UserId{7}));
  EXPECT_FALSE(asym.involves(UserId{4}));
}

TEST(AuditReport, FocusedReportKeepsOnlyTheFocusSlice) {
  AuditReport report(0, 0, UserId{7});
  EXPECT_TRUE(report.covers(UserId{7}));
  EXPECT_FALSE(report.covers(UserId{3}));
  const std::vector<UserId> naming{UserId{2}, UserId{7}};
  const std::vector<UserId> other{UserId{2}, UserId{3}};
  EXPECT_TRUE(report.names(naming));
  EXPECT_FALSE(report.names(other));
  report.violate("st.inner_cap", 3, std::uint32_t{7});  // a count: dropped
  report.violate("st.inner_dup", 3, UserId{7});         // names the focus
  report.violateTransient("st.inner_asym", 3, UserId{4});  // someone else
  report.violate("st.cache_unreleased", 7, std::uint32_t{12});  // its own
  ASSERT_EQ(report.violations().size(), 2u);
  EXPECT_EQ(report.violations()[0].rule, "st.inner_dup");
  EXPECT_EQ(report.violations()[1].rule, "st.cache_unreleased");

  AuditReport full(0, 0);
  EXPECT_TRUE(full.covers(UserId{3}));
  EXPECT_FALSE(full.names(naming));  // a full walk never needs the reverse
  full.violate("st.inner_cap", 3, std::uint32_t{7});
  EXPECT_EQ(full.violations().size(), 1u);
}

AuditReport auditOf(const VodSystem& system, const TransferManager& transfers,
                    sim::SimTime now, sim::SimTime staleBefore,
                    std::optional<UserId> focus = std::nullopt) {
  AuditReport report(now, staleBefore, focus);
  system.auditInvariants(report);
  transfers.auditInvariants(report);
  return report;
}

// Compares every user's focused report against the filtered full report
// under the real repair horizon and under zero grace. Returns how many
// violations the full walks found, so callers can tell a vacuous pass.
std::size_t expectFocusedMatchesFull(Stack& stack, const VodSystem& system) {
  const sim::SimTime now = stack.sim().now();
  const sim::SimTime horizon = stack.config().probeInterval + sim::kSecond;
  std::size_t seen = 0;
  for (const sim::SimTime staleBefore : {now - horizon, now + 1}) {
    const AuditReport full =
        auditOf(system, stack.transfers(), now, staleBefore);
    seen += full.violations().size();
    for (std::uint32_t u = 0; u < stack.catalog().userCount(); ++u) {
      const UserId user{u};
      std::vector<AuditViolation> expected;
      std::copy_if(
          full.violations().begin(), full.violations().end(),
          std::back_inserter(expected),
          [user](const AuditViolation& v) { return v.involves(user); });
      const AuditReport focused =
          auditOf(system, stack.transfers(), now, staleBefore, user);
      EXPECT_EQ(focused.violations(), expected)
          << "user " << u << " at t=" << now << " staleBefore=" << staleBefore;
    }
  }
  return seen;
}

bool hasViolation(const AuditReport& report, const std::string& rule,
                  UserId actor, UserId subject) {
  return std::any_of(report.violations().begin(), report.violations().end(),
                     [&](const AuditViolation& v) {
                       return v.rule == rule && v.actor == actor.value() &&
                              v.subject == subject.value();
                     });
}

VodConfig stormConfig() {
  VodConfig config;
  config.sessionsPerUser = 25;
  config.videosPerSession = 10;
  config.offTimeMeanSeconds = 600.0;
  config.loginStaggerSeconds = 600.0;
  config.abruptDepartureFraction = 0.3;
  return config;
}

// The seeded corruption, after the storm: online `a` grows an
// asymmetric-then-duplicate link to online `b` and a link to offline `d`,
// `b` a self link; the transfer layer gets a watch of `b`'s filed under
// `a`, a leaked watch on `d`, and a duplicated watch on `a`. Then every
// second other online user drops offline without logging out. The link
// corruption returns the rule its duplicate link breaks ("" without links).
struct Victims {
  UserId a = UserId::invalid();
  UserId b = UserId::invalid();
  UserId d = UserId::invalid();
};

// Runs the storm, then the seeded corruption; returns how many violations
// the storm's full walks found before any corruption.
template <typename System, typename CorruptLinks>
std::size_t runStorm(std::uint64_t seed, CorruptLinks&& corruptLinks) {
  const VodConfig config = stormConfig();
  Stack stack(miniCatalog(80, 2, 3, 8), config, seed);
  System system(stack.ctx(), stack.transfers());
  VideoSelector selector(stack.catalog(), config, seed);
  selector.attachContext(stack.ctx());
  SessionDriver driver(stack.ctx(), system, stack.transfers(), selector, seed);
  fault::RecoveryManager recovery(stack.ctx(), system, stack.transfers());
  driver.start();

  const std::uint32_t users =
      static_cast<std::uint32_t>(stack.catalog().userCount());
  Rng rng = Rng::forPurpose(seed, "focused-audit-storm");
  std::size_t seen = 0;
  for (int wave = 0; wave < 6; ++wave) {
    stack.sim().runUntil(stack.sim().now() + 20 * sim::kMinute);
    std::vector<UserId> crashed;
    for (std::uint32_t u = 0; u < users; ++u) {
      if (stack.ctx().isOnline(UserId{u}) && rng.bernoulli(0.4)) {
        driver.crashUser(UserId{u});
        crashed.push_back(UserId{u});
      }
    }
    // Neighbors still hold links to the crashed nodes.
    seen += expectFocusedMatchesFull(stack, system);
    stack.sim().runUntil(stack.sim().now() + 5 * sim::kMinute);
    for (const UserId user : crashed) {
      driver.rejoinUser(user);
      recovery.onRejoin(user);
    }
    // Rejoined nodes carry their pre-crash state; then mid-recovery.
    seen += expectFocusedMatchesFull(stack, system);
    stack.sim().runUntil(stack.sim().now() + sim::kMinute);
    seen += expectFocusedMatchesFull(stack, system);
  }
  EXPECT_GT(recovery.roundsRun(), 0u);

  Victims v;
  for (std::uint32_t u = 0; u < users; ++u) {
    const UserId user{u};
    if (!stack.ctx().isOnline(user)) {
      if (!v.d.valid()) v.d = user;
    } else if (!v.a.valid()) {
      v.a = user;
    } else if (!v.b.valid()) {
      v.b = user;
    }
  }
  if (!v.a.valid() || !v.b.valid() || !v.d.valid()) {
    ADD_FAILURE() << "the storm left no two online and one offline users";
    return seen;
  }
  const std::string dupRule = corruptLinks(system, v);
  const VideoId video{0};
  stack.transfers().injectWatchForTest(v.a, video, /*owner=*/v.b);
  stack.transfers().injectWatchForTest(v.d, video);
  stack.transfers().injectWatchForTest(v.a, VideoId{1});
  stack.transfers().injectWatchForTest(v.a, VideoId{1});
  EXPECT_GT(expectFocusedMatchesFull(stack, system), 0u);

  // Every other online user vanishes without a logout: their directory
  // and watcher registrations, links, watches and the flows they serve to
  // the survivors all leak.
  std::size_t vanished = 0;
  for (std::uint32_t u = 0; u < users; ++u) {
    const UserId user{u};
    if (user == v.a || user == v.b || !stack.ctx().isOnline(user)) continue;
    if (++vanished % 2 == 0) stack.ctx().setOnline(user, false);
  }
  EXPECT_GT(expectFocusedMatchesFull(stack, system), 0u);

  // The duplicate link and the forged watch are in b's slice though both
  // sit in a's state: only the reverse passes can find them.
  const sim::SimTime now = stack.sim().now();
  const AuditReport focusB =
      auditOf(system, stack.transfers(), now, now, v.b);
  EXPECT_TRUE(hasViolation(focusB, "tm.watch_owner", v.a, v.b));
  if (!dupRule.empty()) {
    EXPECT_TRUE(hasViolation(focusB, dupRule, v.a, v.b));
  }
  return seen;
}

// Links to crashed nodes (stale under zero grace) and rejoined nodes'
// leftovers put violations in the link systems' storms.
TEST(FocusedAudit, SocialTubeStormMatchesFullAudit) {
  const std::size_t seen = runStorm<core::SocialTubeSystem>(
      3, [](core::SocialTubeSystem& system, const Victims& v) {
        system.injectLinkForTest(v.a, v.b, /*inner=*/true);
        system.injectLinkForTest(v.a, v.b, /*inner=*/true);
        system.injectLinkForTest(v.b, v.b, /*inner=*/false);
        system.injectLinkForTest(v.a, v.d, /*inner=*/false);
        return std::string("st.inner_dup");
      });
  EXPECT_GT(seen, 0u);
}

TEST(FocusedAudit, NetTubeStormMatchesFullAudit) {
  const std::size_t seen = runStorm<baselines::NetTubeSystem>(
      5, [](baselines::NetTubeSystem& system, const Victims& v) {
        const VideoId video{2};
        system.injectLinkForTest(v.a, v.b, video);
        system.injectLinkForTest(v.a, v.b, video);
        system.injectLinkForTest(v.b, v.b, video);
        system.injectLinkForTest(v.a, v.d, video);
        return std::string("nt.dup_link");
      });
  EXPECT_GT(seen, 0u);
}

TEST(FocusedAudit, PaVodStormMatchesFullAudit) {
  // PA-VoD keeps no links; only its watcher registrations and the
  // transfer layer's watches are in a node's slice.
  runStorm<baselines::PaVodSystem>(
      7, [](baselines::PaVodSystem&, const Victims&) { return std::string(); });
}

}  // namespace
}  // namespace st::vod
