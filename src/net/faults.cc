#include "net/faults.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace teleport::net {

void FaultInjector::AddOutage(Nanos from, Nanos until, bool crash_restart,
                              int node) {
  TELEPORT_CHECK(until > from)
      << "outage windows are finite: until (" << until
      << ") must be > from (" << from
      << "); use Fabric::InjectFailureWindowOn for a permanent failure";
  TELEPORT_CHECK(node >= 0) << "outage node must be >= 0, got " << node;
  if (static_cast<size_t>(node) >= nodes_.size()) {
    nodes_.resize(static_cast<size_t>(node) + 1);
  }
  NodeTimeline& tl = nodes_[static_cast<size_t>(node)];
  // Disjointness is a per-node contract: windows on other nodes describe
  // other links of the rack and may overlap this one freely.
  for (const OutageWindow& w : tl.outages) {
    TELEPORT_CHECK(until <= w.from || from >= w.until)
        << "outage [" << from << ", " << until << ") on node " << node
        << " overlaps scheduled [" << w.from << ", " << w.until
        << "); windows on one node must be disjoint (touching endpoints are "
           "fine) — merge them at the call site if one outage is intended";
  }
  tl.outages.push_back(OutageWindow{from, until, crash_restart, node});
  std::sort(tl.outages.begin(), tl.outages.end(),
            [](const OutageWindow& a, const OutageWindow& b) {
              return a.from < b.from;
            });
  // Rebuild the derived timeline indexes (see header). Disjointness makes
  // the until-order match the from-order, so both stay binary-searchable.
  tl.untils.clear();
  tl.crash_prefix.assign(1, 0);
  tl.untils.reserve(tl.outages.size());
  tl.crash_prefix.reserve(tl.outages.size() + 1);
  for (const OutageWindow& w : tl.outages) {
    tl.untils.push_back(w.until);
    tl.crash_prefix.push_back(tl.crash_prefix.back() +
                              (w.crash_restart ? 1 : 0));
  }
}

void FaultInjector::AddLinkFlaps(Nanos start, Nanos duration, Nanos period,
                                 int count, int node) {
  TELEPORT_CHECK(duration > 0 && count >= 0);
  TELEPORT_CHECK(count <= 1 || period > duration)
      << "flap period must exceed the flap duration";
  for (int k = 0; k < count; ++k) {
    const Nanos from = start + static_cast<Nanos>(k) * period;
    AddOutage(from, from + duration, /*crash_restart=*/false, node);
  }
}

Rng& FaultInjector::StreamFor(Link link, bool to_memory) {
  const uint64_t key = (static_cast<uint64_t>(link.src) << 32) |
                       (static_cast<uint64_t>(link.dst) << 1) |
                       (to_memory ? 1u : 0u);
  auto it = streams_.find(key);
  if (it == streams_.end()) {
    // Mixed over (seed, key): stream seeds are decorrelated across
    // links/directions yet a pure function of identity, so the map may grow
    // in any order without perturbing any existing stream.
    const uint64_t stream_seed = Mix64(seed_ + 0x9e3779b97f4a7c15ULL * key);
    it = streams_.emplace(key, Rng(stream_seed)).first;
  }
  return it->second;
}

FaultDecision FaultInjector::OnSend(MessageKind kind, Nanos now, Link link,
                                    bool to_memory) {
  (void)now;
  FaultDecision d;
  const FaultSpec& s = specs_[Index(kind)];
  Rng& rng = StreamFor(link, to_memory);
  if (s.drop_p > 0.0 && rng.Bernoulli(s.drop_p)) {
    d.dropped = true;
    ++drops_;
    ++drops_by_kind_[Index(kind)];
    return d;
  }
  if (s.dup_p > 0.0 && rng.Bernoulli(s.dup_p)) {
    d.copies = 2;
    ++duplicates_;
  }
  if (s.delay_p > 0.0 && rng.Bernoulli(s.delay_p)) {
    d.extra_delay_ns = s.delay_ns;
    ++delays_;
  }
  return d;
}

const OutageWindow* FaultInjector::WindowCovering(Nanos now, int node) const {
  if (node < 0 || static_cast<size_t>(node) >= nodes_.size()) return nullptr;
  const NodeTimeline& tl = nodes_[static_cast<size_t>(node)];
  // First window with from > now; the only candidate covering `now` is the
  // one before it (windows on one node are disjoint and sorted by from).
  auto it = std::upper_bound(
      tl.outages.begin(), tl.outages.end(), now,
      [](Nanos t, const OutageWindow& w) { return t < w.from; });
  if (it == tl.outages.begin()) return nullptr;
  --it;
  return now < it->until ? &*it : nullptr;
}

bool FaultInjector::LinkUpAt(Nanos now, int node) const {
  return WindowCovering(now, node) == nullptr;
}

Nanos FaultInjector::HealsAt(Nanos now, int node) const {
  const OutageWindow* w = WindowCovering(now, node);
  return w != nullptr ? w->until : -1;
}

bool FaultInjector::InCrashRestartAt(Nanos now, int node) const {
  const OutageWindow* w = WindowCovering(now, node);
  return w != nullptr && w->crash_restart;
}

int FaultInjector::CrashRestartsCompletedBy(Nanos now, int node) const {
  if (node < 0 || static_cast<size_t>(node) >= nodes_.size()) return 0;
  const NodeTimeline& tl = nodes_[static_cast<size_t>(node)];
  // Windows with until <= now form a prefix of the until-sorted list;
  // crash_prefix turns its length into a crash-restart count.
  const auto idx = static_cast<size_t>(
      std::upper_bound(tl.untils.begin(), tl.untils.end(), now) -
      tl.untils.begin());
  return tl.crash_prefix[idx];
}

const std::vector<OutageWindow>& FaultInjector::outages(int node) const {
  static const std::vector<OutageWindow> kEmpty;
  if (node < 0 || static_cast<size_t>(node) >= nodes_.size()) return kEmpty;
  return nodes_[static_cast<size_t>(node)].outages;
}

size_t FaultInjector::total_windows() const {
  size_t n = 0;
  for (const NodeTimeline& tl : nodes_) n += tl.outages.size();
  return n;
}

std::string FaultInjector::ToString() const {
  std::ostringstream os;
  os << "faults{seed=" << seed_ << " drops=" << drops_
     << " dups=" << duplicates_ << " delays=" << delays_
     << " outage_drops=" << outage_drops_
     << " windows=" << total_windows() << "}";
  return os.str();
}

void FaultInjector::Reset() {
  // Dropping the map reseeds lazily: each stream's seed is a pure function
  // of (seed_, link, direction), so recreation replays identical sequences.
  streams_.clear();
  drops_ = 0;
  duplicates_ = 0;
  delays_ = 0;
  outage_drops_ = 0;
  drops_by_kind_.fill(0);
}

}  // namespace teleport::net
