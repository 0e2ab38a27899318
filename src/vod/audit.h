// Structural-invariant audit report shared by every VoD system.
//
// The paper's overlay has a machine-checkable contract (§IV-A): bounded
// inner/inter link budgets, symmetric links, inter-links only into sibling
// channels of the same interest category, and no links to nodes that
// departed longer ago than one probe round can tolerate. Each system's
// auditInvariants() walks its own state and appends violations here; the
// fault::InvariantChecker drives the walk periodically and decides which
// violations are real.
//
// Two severities:
//  * violate()          — unconditionally wrong the instant it is observed
//    (an oversized link set, a watch owned by an offline user).
//  * violateTransient() — wrong only if it *persists*: in-flight goodbye
//    messages and not-yet-probed stale links legitimately look broken for a
//    bounded window. The checker confirms these only when the same
//    (rule, actor, subject) triple stays violated for longer than the
//    repair horizon.
//
// Full and focused audits. A report built without a focus collects every
// violation (the InvariantChecker's periodic walk). A report built with a
// focus user keeps only the violations that involve that user
// (AuditViolation::involves: the user is the actor, or the subject *and*
// the subject is a user), in the order the full walk would have emitted
// them — fault::RecoveryManager asks this of every rejoined node each
// round. The node's slice is:
//  * its own per-node rules (its link lists, caches, watches, ...);
//  * other online nodes' link lists that name it, where the per-list rules
//    (asymmetric, duplicate, stale links) can make it the subject, and
//    other users' watches that name it as owner or provider;
//  * its own directory/watcher registrations.
// So an auditInvariants() walk must honour the focus contract:
//  * run a node's own rule body only where covers(node) holds;
//  * for every other node, re-run the per-list rules on each list that
//    names() the focus, in the same walk position (the report drops what
//    does not involve the focus);
//  * visit directory registrations through forEachRegistration();
//  * pass user subjects as UserId, every other subject (video, channel,
//    count) as a plain integer, so involves() can tell them apart.
// A focused walk thus costs the focus's own state plus one scan of link
// lists, not a whole-system walk.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.h"
#include "util/strong_id.h"

namespace st::vod {

struct AuditViolation {
  std::string rule;           // stable identifier, e.g. "inner_cap"
  std::uint32_t actor = 0;    // the node whose state is wrong
  std::uint32_t subject = 0;  // counterpart: neighbor, video, ... (rule-specific)
  bool transient = false;     // confirm-on-persistence (see header comment)
  bool subjectIsUser = false;  // `subject` is a user id, not a video/count/...

  // Is `user` party to this violation? A video, channel or count subject
  // that happens to equal the user's id does not make it so.
  [[nodiscard]] bool involves(UserId user) const {
    return actor == user.value() ||
           (subjectIsUser && subject == user.value());
  }

  bool operator==(const AuditViolation&) const = default;
};

class AuditReport {
 public:
  // `focus` set: keep only violations that involve that user (see the
  // header comment for the walk contract this asks of the systems).
  AuditReport(sim::SimTime now, sim::SimTime staleBefore,
              std::optional<UserId> focus = std::nullopt)
      : now_(now), staleBefore_(staleBefore), focus_(focus) {}

  [[nodiscard]] sim::SimTime now() const { return now_; }
  // Links to nodes offline since before this instant are past the repair
  // horizon and must have been probed out already.
  [[nodiscard]] sim::SimTime staleBefore() const { return staleBefore_; }

  [[nodiscard]] const std::optional<UserId>& focus() const { return focus_; }
  // Must the walk run `user`'s own rule body? Every node in a full audit,
  // only the focus in a focused one.
  [[nodiscard]] bool covers(UserId user) const {
    return !focus_ || *focus_ == user;
  }
  // Does another node's link list name the focus? Only then can its
  // per-list rules report a violation about the focus.
  [[nodiscard]] bool names(std::span<const UserId> links) const {
    return focus_ && std::find(links.begin(), links.end(), *focus_) !=
                         links.end();
  }

  // Visits the (member, key) registrations of a MembershipDirectory that
  // the walk must check: all of them in a full audit, the focus's own in a
  // focused one (same order either way).
  template <typename Directory, typename Fn>
  void forEachRegistration(const Directory& directory, Fn&& fn) const {
    if (focus_) {
      directory.forEachOf(*focus_, fn);
    } else {
      directory.forEach(fn);
    }
  }

  // Subject is a user (a neighbor, a watch owner, a provider).
  void violate(std::string rule, std::uint32_t actor, UserId subject) {
    add({std::move(rule), actor, subject.value(), false, true});
  }
  // Subject is anything else: a video, a channel, a count.
  void violate(std::string rule, std::uint32_t actor, std::uint32_t subject) {
    add({std::move(rule), actor, subject, false, false});
  }
  void violateTransient(std::string rule, std::uint32_t actor,
                        UserId subject) {
    add({std::move(rule), actor, subject.value(), true, true});
  }
  void violateTransient(std::string rule, std::uint32_t actor,
                        std::uint32_t subject) {
    add({std::move(rule), actor, subject, true, false});
  }

  [[nodiscard]] const std::vector<AuditViolation>& violations() const {
    return violations_;
  }
  [[nodiscard]] bool clean() const { return violations_.empty(); }

 private:
  void add(AuditViolation violation) {
    if (focus_ && !violation.involves(*focus_)) return;
    violations_.push_back(std::move(violation));
  }

  sim::SimTime now_;
  sim::SimTime staleBefore_;
  std::optional<UserId> focus_;
  std::vector<AuditViolation> violations_;
};

}  // namespace st::vod
