#include "src/policy/policy.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/base/panic.h"
#include "src/metrics/metrics.h"

namespace policy {

PlacementPolicy::PlacementPolicy(PolicyConfig config) : config_(config) {
  AMBER_CHECK(config_.half_life > 0);
  AMBER_CHECK(config_.improvement_ratio >= 1.0);
  AMBER_CHECK(config_.migration_budget >= 0);
  AMBER_CHECK(config_.budget_window > 0);
}

void PlacementPolicy::AttachTo(amber::Runtime& rt) {
  AMBER_CHECK(rt_ == nullptr) << "placement policy already attached";
  rt_ = &rt;
  kernel_ = &rt.sim();
  net_ = &rt.network();
  membership_ = rt.membership();  // non-null only with an active fault plan
  const int n = rt.nodes();
  budget_.assign(static_cast<size_t>(n), {});
  view_.assign(static_cast<size_t>(n), std::vector<SummaryView>(static_cast<size_t>(n)));
  tick_armed_.assign(static_cast<size_t>(n), false);
  drained_.assign(static_cast<size_t>(n), false);
  rt.AddObserver(this);
  rt.SetPlacementPolicy(this);
  if (!config_.enabled) {
    // Observe-only: heat tracking and policy.heat export, no pulls and no
    // gossip — the run's virtual time and wire traffic are untouched.
    return;
  }
  if (membership_ != nullptr) {
    // Fault plan active: piggyback the summary on every membership
    // heartbeat (wire grows by Membership::kSummaryWireBytes per frame).
    membership_->SetSummaryProvider([this](NodeId sender, fault::LoadSummary* out) {
      const Time now = kernel_->Now();
      *out = LocalSummary(sender, now);
      view_[static_cast<size_t>(sender)][static_cast<size_t>(sender)] = {*out, now, true};
      ++summaries_sent_;
      return true;
    });
    membership_->SetSummaryHandler(
        [this](Time when, NodeId viewer, NodeId sender, const fault::LoadSummary& s) {
          ReceiveSummary(when, viewer, sender, s);
        });
  } else {
    // Fault-free run: the policy gossips its own summary datagrams on the
    // membership cadence pattern (per-node tick chains that wind down with
    // the fiber population).
    for (NodeId node = 0; node < n; ++node) {
      ArmSummaryTick(node, config_.summary_period);
    }
  }
}

// --- Heat model ----------------------------------------------------------------

double PlacementPolicy::Decayed(const OriginHeat& h, Time now) const {
  if (now <= h.updated) {
    return h.heat;
  }
  const double periods = static_cast<double>(now - h.updated) /
                         static_cast<double>(config_.half_life);
  return h.heat * std::exp2(-periods);
}

double PlacementPolicy::TotalHeat(const ObjState& st, Time now) const {
  double total = 0.0;
  for (const auto& [origin, oh] : st.origins) {
    total += Decayed(oh, now);
  }
  return total;
}

const PlacementPolicy::ObjState* PlacementPolicy::Find(const void* obj) const {
  const auto it = index_.find(obj);
  return it == index_.end() ? nullptr : &objects_[it->second];
}

PlacementPolicy::ObjState& PlacementPolicy::Ensure(const void* obj, const std::string& label,
                                                   Time when) {
  const auto [it, inserted] = index_.try_emplace(obj, objects_.size());
  if (inserted) {
    ObjState st;
    st.id = objects_.size() + 1;  // dense first-seen order, 1-based like object seqs
    st.label = label;
    st.first_seen = when;
    objects_.push_back(std::move(st));
  }
  return objects_[it->second];
}

void PlacementPolicy::OnInvokeEnter(Time when, NodeId node, ThreadId thread, const void* obj,
                                    const std::string& object, bool remote, NodeId origin,
                                    Duration entry_overhead) {
  ObjState& st = Ensure(obj, object, when);
  st.home = node;  // invocations run where the object lives
  OriginHeat& oh = st.origins[origin];
  oh.heat = Decayed(oh, when) + 1.0;
  oh.updated = when;
}

void PlacementPolicy::OnObjectMove(Time when, const void* obj, NodeId src, NodeId dst,
                                   int64_t bytes) {
  const auto it = index_.find(obj);
  if (it == index_.end()) {
    return;  // moved before it was ever invoked — no heat to re-home
  }
  ObjState& st = objects_[it->second];
  st.home = dst;
  st.last_move = when;
}

void PlacementPolicy::OnRecoveryStart(Time when, NodeId node, ThreadId thread, const void* obj) {
  ++recovery_depth_;
}

void PlacementPolicy::OnRecoveryEnd(Time when, NodeId node, ThreadId thread, const void* obj,
                                    bool ok) {
  if (recovery_depth_ > 0) {
    --recovery_depth_;
  }
}

void PlacementPolicy::OnNodeDrained(Time when, NodeId node, int objects_moved) {
  drained_[static_cast<size_t>(node)] = true;
}

// --- Decision ------------------------------------------------------------------

void PlacementPolicy::Deny(const char* reason) { ++denials_[reason]; }

bool PlacementPolicy::ShouldPull(const amber::Object* root, const amber::Object* target,
                                 NodeId here, Time now) {
  if (!config_.enabled) {
    return false;
  }
  if (recovery_depth_ > 0) {
    // A recovery episode is rebuilding object homes right now; adaptive
    // moves would race the election/restore protocols.
    Deny("recovery");
    return false;
  }
  if (drained_[static_cast<size_t>(here)]) {
    Deny("drained");  // never pull toward a node being evacuated
    return false;
  }
  const auto it = index_.find(target);
  if (it == index_.end()) {
    Deny("cold");  // never seen an invocation of it — no case to weigh
    return false;
  }
  ObjState& st = objects_[it->second];
  if (membership_ != nullptr && st.home >= 0 && membership_->Suspects(here, st.home)) {
    // The observed home's heartbeat lease expired here: leave the object to
    // the failure/recovery machinery instead of racing it with a move.
    Deny("suspected");
    return false;
  }
  if (now < st.cooldown_until) {
    Deny("cooldown");
    return false;
  }
  if (now - std::max(st.last_move, st.first_seen) < config_.min_residency) {
    Deny("residency");
    return false;
  }
  NodeBudget& b = budget_[static_cast<size_t>(here)];
  if (b.window_start == 0 || now - b.window_start >= config_.budget_window) {
    b.window_start = now;
    b.used = 0;
  }
  if (b.used >= config_.migration_budget) {
    Deny("budget");
    return false;
  }
  const auto here_it = st.origins.find(here);
  const double heat_here = here_it == st.origins.end() ? 0.0 : Decayed(here_it->second, now);
  if (heat_here < config_.min_heat) {
    Deny("low_heat");
    return false;
  }
  const auto home_it = st.origins.find(st.home);
  const double heat_home = home_it == st.origins.end() ? 0.0 : Decayed(home_it->second, now);
  if (heat_here < config_.improvement_ratio * heat_home) {
    Deny("no_dominance");
    return false;
  }
  // Load veto from the gossiped view: don't steal work onto a node already
  // deeper in runnable threads than the object's home.
  const SummaryView& v =
      view_[static_cast<size_t>(here)][static_cast<size_t>(std::max<NodeId>(st.home, 0))];
  const int home_queue = v.valid ? v.summary.runnable : 0;
  if (kernel_->RunQueueLength(here) - home_queue > config_.max_queue_imbalance) {
    Deny("overloaded");
    return false;
  }
  ++pulls_granted_;
  ++b.used;
  ++st.policy_moves;
  st.cooldown_until = now + config_.cooldown;
  return true;
}

Time PlacementPolicy::Now() const {
  if (frozen_) {
    return frozen_now_;
  }
  return kernel_ != nullptr ? kernel_->Now() : 0;
}

void PlacementPolicy::OnRunEnd(Time end) {
  frozen_now_ = end;
  frozen_ = true;
}

void PlacementPolicy::OnPullResult(const amber::Object* root, NodeId here, bool ok) {
  if (ok) {
    ++pulls_completed_;
  } else {
    ++pulls_failed_;
  }
}

// --- Load-summary gossip -------------------------------------------------------

fault::LoadSummary PlacementPolicy::LocalSummary(NodeId node, Time now) const {
  fault::LoadSummary s;
  s.runnable = kernel_->RunQueueLength(node);
  s.busy = kernel_->BusyProcessors(node);
  int hot = 0;
  for (const ObjState& st : objects_) {
    if (st.home == node && TotalHeat(st, now) >= config_.min_heat) {
      ++hot;
    }
  }
  s.hot_objects = hot;
  s.recent_migrations = budget_[static_cast<size_t>(node)].used;
  return s;
}

void PlacementPolicy::ReceiveSummary(Time when, NodeId viewer, NodeId sender,
                                     const fault::LoadSummary& s) {
  view_[static_cast<size_t>(viewer)][static_cast<size_t>(sender)] = {s, when, true};
  ++summaries_received_;
}

void PlacementPolicy::ArmSummaryTick(NodeId node, Time at) {
  tick_armed_[static_cast<size_t>(node)] = true;
  kernel_->Post(at, [this, node] { SummaryTick(node); });
}

void PlacementPolicy::SummaryTick(NodeId node) {
  if (!kernel_->AnyLiveFiberOnUpNode()) {
    // Wind down with the fiber population, like the membership ticks, so
    // the event queue can drain.
    tick_armed_[static_cast<size_t>(node)] = false;
    return;
  }
  const Time now = kernel_->Now();
  if (kernel_->NodeUp(node)) {
    const fault::LoadSummary s = LocalSummary(node, now);
    view_[static_cast<size_t>(node)][static_cast<size_t>(node)] = {s, now, true};
    for (NodeId peer = 0; peer < kernel_->nodes(); ++peer) {
      if (peer == node) {
        continue;
      }
      ++summaries_sent_;
      net_->Send(node, peer, config_.summary_bytes, now,
                 [this, node, peer, s] { ReceiveSummary(kernel_->Now(), peer, node, s); });
    }
  }
  ArmSummaryTick(node, now + config_.summary_period);
}

// --- Export --------------------------------------------------------------------

double PlacementPolicy::HeatOf(const void* obj, NodeId origin, Time now) const {
  const ObjState* st = Find(obj);
  if (st == nullptr) {
    return 0.0;
  }
  const auto it = st->origins.find(origin);
  return it == st->origins.end() ? 0.0 : Decayed(it->second, now);
}

void PlacementPolicy::PublishMetrics(metrics::Registry* registry) {
  if (registry == nullptr) {
    return;
  }
  const Time now = Now();
  for (const ObjState& st : objects_) {
    const std::string label = "obj" + std::to_string(st.id);
    auto& heat = registry->GetHistogram("policy.heat", label);
    double best = -1.0;
    NodeId best_origin = -1;
    for (const auto& [origin, oh] : st.origins) {
      const double h = Decayed(oh, now);
      heat.Record(h);
      if (h > best) {
        best = h;
        best_origin = origin;
      }
    }
    registry->GetGauge("policy.heat.hottest_origin", label).Set(static_cast<double>(best_origin));
    registry->GetGauge("policy.home", label).Set(static_cast<double>(st.home));
    if (st.policy_moves > 0) {
      registry->GetCounter("policy.moves", label).Add(st.policy_moves);
    }
  }
  if (pulls_granted_ > 0) {
    registry->GetCounter("policy.pulls.granted").Add(pulls_granted_);
    registry->GetCounter("policy.pulls.completed").Add(pulls_completed_);
  }
  if (pulls_failed_ > 0) {
    registry->GetCounter("policy.pulls.failed").Add(pulls_failed_);
  }
  if (summaries_sent_ > 0) {
    registry->GetCounter("policy.summaries.sent").Add(summaries_sent_);
  }
  if (summaries_received_ > 0) {
    registry->GetCounter("policy.summaries.received").Add(summaries_received_);
  }
  for (const auto& [reason, count] : denials_) {
    registry->GetCounter("policy.denied", reason).Add(count);
  }
}

void PlacementPolicy::WriteHeatSummary(std::ostream& out) const {
  const Time now = Now();
  std::vector<const ObjState*> order;
  order.reserve(objects_.size());
  for (const ObjState& st : objects_) {
    order.push_back(&st);
  }
  std::sort(order.begin(), order.end(), [&](const ObjState* a, const ObjState* b) {
    const double ha = TotalHeat(*a, now);
    const double hb = TotalHeat(*b, now);
    if (ha != hb) {
      return ha > hb;
    }
    return a->id < b->id;
  });
  out << "placement heat (decayed to end of run, half-life "
      << config_.half_life / 1000000 << "ms):\n";
  const size_t top = std::min<size_t>(order.size(), 16);
  char buf[64];
  for (size_t i = 0; i < top; ++i) {
    const ObjState& st = *order[i];
    std::snprintf(buf, sizeof(buf), "%8.2f", TotalHeat(st, now));
    out << "  obj" << st.id << " " << st.label << "  home=node" << st.home << "  total=" << buf
        << "  origins:";
    for (const auto& [origin, oh] : st.origins) {
      const double h = Decayed(oh, now);
      if (h < 0.01) {
        continue;
      }
      std::snprintf(buf, sizeof(buf), "%.2f", h);
      out << " node" << origin << ":" << buf;
    }
    out << "\n";
  }
  if (order.size() > top) {
    out << "  ... " << (order.size() - top) << " cooler objects\n";
  }
}

}  // namespace policy
