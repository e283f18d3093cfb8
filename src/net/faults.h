#ifndef TELEPORT_NET_FAULTS_H_
#define TELEPORT_NET_FAULTS_H_

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "net/fabric.h"

namespace teleport::net {

/// Per-MessageKind transient fault probabilities. All zero by default, so an
/// attached injector with default specs perturbs nothing.
struct FaultSpec {
  double drop_p = 0.0;   ///< message lost in flight; the sender sees silence
  double delay_p = 0.0;  ///< message held up by `delay_ns` before the wire
  double dup_p = 0.0;    ///< message delivered twice (bytes counted twice)
  Nanos delay_ns = 0;    ///< extra latency applied on a delay event
};

/// Verdict for one message send.
struct FaultDecision {
  bool dropped = false;
  int copies = 1;            ///< 2 when duplicated
  Nanos extra_delay_ns = 0;  ///< sender-side stall before serialization
};

/// One scheduled outage of a compute<->memory link. While an outage covers
/// the current virtual time the targeted memory node is unreachable; the
/// window heals at `until` (exclusive). Windows are always finite —
/// permanent loss is expressed with Fabric::InjectFailureWindowOn, which
/// keeps the paper's panic semantics (§3.2).
struct OutageWindow {
  Nanos from = 0;
  Nanos until = 0;
  /// Crash-restart of the memory node (distinct from a permanent crash):
  /// when the node comes back at `until`, dirty compute-cache pages survive
  /// but unflushed memory-pool writes since the last Syncmem are lost and
  /// reported (MemorySystem::ApplyPoolRestarts).
  bool crash_restart = false;
  /// Memory node (pool shard) the window targets. Windows on different
  /// nodes are independent timelines: they may overlap freely, and each
  /// node's crash-restart count advances only with its own windows.
  int node = 0;
};

/// Seeded, deterministic fault-injection fabric consulted by the Fabric per
/// message. Two fault families:
///
///  - Probabilistic per-kind events (drop / delay / duplicate), drawn from a
///    dedicated xoshiro stream PER LINK PER DIRECTION, deterministically
///    seeded from (seed, src, dst, direction). A link's fault sequence is a
///    pure function of its own send sequence: adding or removing traffic on
///    link A never reshuffles which sends on link B get faulted. (The seed
///    shared one stream across all links in global send order, which made
///    every link's fault pattern depend on unrelated topology-wide traffic;
///    faults_test locks the isolation.)
///  - Scheduled outages on the virtual timeline, keyed by memory node:
///    transient link flaps and per-node crash-restart windows.
///
/// The injector never touches clocks or channels itself; the Fabric applies
/// its decisions so all lost time is accounted on virtual clocks.
class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed) : seed_(seed) {}

  uint64_t seed() const { return seed_; }

  // --- Configuration ------------------------------------------------------

  void SetSpec(MessageKind kind, const FaultSpec& spec) {
    specs_[Index(kind)] = spec;
  }
  void SetSpecAll(const FaultSpec& spec) { specs_.fill(spec); }
  const FaultSpec& spec(MessageKind kind) const { return specs_[Index(kind)]; }

  /// Schedules one outage window [from, until) on `node`. `until` must be
  /// > `from`.
  ///
  /// Windows on the SAME node must be pairwise disjoint: an overlap aborts
  /// with a message naming both windows, because merging would have to pick
  /// one `crash_restart` flag and silently change recovery semantics.
  /// Touching windows (`until == next.from`) are allowed — the timeline
  /// treats them as healed for the single instant in between. Windows on
  /// DIFFERENT nodes are unrelated and may overlap arbitrarily (two shards
  /// of a rack can be down at once). Windows may be added in any order; the
  /// injector keeps each node's timeline sorted and answers all queries by
  /// binary search.
  void AddOutage(Nanos from, Nanos until, bool crash_restart = false,
                 int node = 0);

  /// Schedules `count` link flaps of `duration` each, the k-th starting at
  /// `start + k * period`. Windows must not overlap (period > duration).
  void AddLinkFlaps(Nanos start, Nanos duration, Nanos period, int count,
                    int node = 0);

  /// Schedules a crash of memory node `node` at `at` that restarts
  /// `down_for` later.
  void ScheduleCrashRestart(Nanos at, Nanos down_for, int node = 0) {
    AddOutage(at, at + down_for, /*crash_restart=*/true, node);
  }

  // --- Per-send consultation (mutates the RNG stream) ---------------------

  /// Decides the fate of one message of `kind` sent at `now` over `link` in
  /// the given direction, drawing from that link+direction's own stream.
  /// Counted in the injector's event totals; scheduled outages are NOT
  /// applied here (the Fabric checks LinkUpAt separately so reachability
  /// stays a const query).
  FaultDecision OnSend(MessageKind kind, Nanos now, Link link,
                       bool to_memory);

  /// Records a message lost to an outage window (bookkeeping only).
  void CountOutageDrop() { ++outage_drops_; }

  // --- Timeline queries (const, deterministic) ----------------------------

  /// False while any scheduled outage window on `node` covers `now`.
  bool LinkUpAt(Nanos now, int node = 0) const;

  /// End of the outage window on `node` covering `now`, or -1 if that link
  /// is up. All injector windows are finite, so this never means "forever".
  Nanos HealsAt(Nanos now, int node = 0) const;

  /// True if the outage on `node` covering `now` is a crash-restart.
  bool InCrashRestartAt(Nanos now, int node = 0) const;

  /// Number of crash-restart windows of `node` fully completed
  /// (until <= now): that node has crashed and come back that many times.
  /// MemorySystem applies the lost-write bookkeeping per shard when its
  /// count advances.
  int CrashRestartsCompletedBy(Nanos now, int node = 0) const;

  /// Scheduled windows of one node, sorted by `from` (empty for a node with
  /// no schedule). For tests and linear-scan cross-checks.
  const std::vector<OutageWindow>& outages(int node = 0) const;

  /// Total scheduled windows across every node.
  size_t total_windows() const;

  // --- Event totals -------------------------------------------------------

  uint64_t drops() const { return drops_; }
  uint64_t duplicates() const { return duplicates_; }
  uint64_t delays() const { return delays_; }
  uint64_t outage_drops() const { return outage_drops_; }
  uint64_t drops_of(MessageKind kind) const { return drops_by_kind_[Index(kind)]; }
  /// Total injected events of every family.
  uint64_t fault_events() const {
    return drops_ + duplicates_ + delays_ + outage_drops_;
  }

  std::string ToString() const;

  /// Reseeds every per-link RNG stream and clears event counters. The
  /// configured specs and outage schedule are kept, so a Reset + identical
  /// send sequence replays the identical fault pattern.
  void Reset();

 private:
  static size_t Index(MessageKind kind) {
    return static_cast<size_t>(kind);
  }

  /// One memory node's outage schedule plus its derived timeline indexes,
  /// rebuilt by AddOutage. Disjoint windows sorted by `from` are also
  /// sorted by `until`, so `untils` is an ascending key for "how many
  /// windows completed by t"; `crash_prefix[i]` counts crash-restart
  /// windows among the first i.
  struct NodeTimeline {
    std::vector<OutageWindow> outages;  ///< sorted by `from`, disjoint
    std::vector<Nanos> untils;
    std::vector<int> crash_prefix{0};
  };

  /// Window on `node` containing `now`, or nullptr. O(log n) over that
  /// node's sorted windows.
  const OutageWindow* WindowCovering(Nanos now, int node) const;

  /// The (link, direction) stream, created on first use. Seeding depends
  /// only on (seed_, src, dst, direction) — never on creation order — so
  /// lazily growing the map cannot perturb determinism.
  Rng& StreamFor(Link link, bool to_memory);

  uint64_t seed_;
  /// Per-(link, direction) fault streams, keyed by
  /// src << 32 | dst << 1 | to_memory (node ids are ints, so dst << 1 stays
  /// below the src field).
  std::unordered_map<uint64_t, Rng> streams_;
  std::array<FaultSpec, kNumMessageKinds> specs_{};
  std::vector<NodeTimeline> nodes_;  ///< index = memory node id; grown lazily

  uint64_t drops_ = 0;
  uint64_t duplicates_ = 0;
  uint64_t delays_ = 0;
  uint64_t outage_drops_ = 0;
  std::array<uint64_t, kNumMessageKinds> drops_by_kind_{};
};

}  // namespace teleport::net

#endif  // TELEPORT_NET_FAULTS_H_
