#ifndef TELEPORT_TELEPORT_MODEL_CHECKER_H_
#define TELEPORT_TELEPORT_MODEL_CHECKER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ddc/memory_system.h"

namespace teleport::tp {

/// Executable specification of the §4.1 page-coherence protocol, run in
/// lock-step with the real ddc::MemorySystem. On every CoherenceEvent the
/// checker steps its own model of the protocol state machine and asserts:
///
///  1. *Spec/impl agreement* — the model's predicted per-page state
///     (compute perm, temporary-context perm, compute dirty bit) equals the
///     implementation's page table after the transition.
///  2. *SWMR* — under kMesi a writable mapping on one side excludes any
///     mapping on the other; under kPso a writer may coexist only with a
///     reader; kWeakOrdering/kNone deliberately relax this.
///  3. *Freshness* — under kMesi every read observes the latest write:
///     the model tracks an abstract version counter per page (bumped on
///     each write, propagated by fills, page-returns, writebacks and
///     syncmem) and requires the reading side's version to equal the
///     globally newest one. This is the "data value matches last write"
///     invariant without hashing page payloads.
///  4. *Drain* — when a session ends (and at Finish()) no temporary-context
///     permissions or in-flight upgrade windows survive.
///  5. *TLB shootdown* — every event that reflects a protocol transition
///     (coherence fault, eviction, writeback, flush, refetch, restart,
///     session boundary) must observe a translation-epoch value different
///     from the previous event's: the extent fast path caches page
///     translations (ddc::PagePin) and a transition that forgets the
///     shootdown would let a pin serve accesses against stale state.
///     Access events that the spec resolves as plain hits carry no such
///     obligation.
///  6. *Recovery* (PR6, journal-on runs) — three sub-clauses. (a) Every
///     acknowledged write is readable after recovery: a kJournalCommit marks
///     its page acknowledged; a kPoolRestart turns every acknowledged page
///     into a re-materialization obligation that only a kPoolRecover for
///     that page discharges — any other event (or Finish) with obligations
///     outstanding is a violation (catches kSkipJournalReplay). (b) No
///     fenced session's effects become visible: every kSessionBegin carries
///     its admission epoch, which must equal the pool epoch announced by
///     the latest kPoolRestart (catches kSkipFencing). (c) Exactly-once
///     pushdown: a kPushdownAdmit that executes an already-executed
///     idempotency token is a double-apply (catches kReplayDuplicate), and
///     one that absorbs a never-executed token dropped a first delivery.
///  7. *Transactions* (PR8, runs with an oltp engine) — committed
///     transactions form an order consistent with version validation, and
///     aborted ones leave no visible writes. The checker keeps a shadow
///     committed version per record key, fed by the kTxn* events (`page`
///     carries the key, `epoch` a version, `node` the session): (a) every
///     kTxnRead must observe the shadow committed version — observing a
///     provisional one is a dirty read; (b) at kTxnCommit the session's
///     whole read set must still match the shadow (catches
///     kSkipOccValidation — a racing commit bumped a version the reader
///     validated against), then its provisional kTxnWrite installs merge
///     into the shadow, each bumping its key by exactly one; (c) a kTxnAbort
///     turns the session's provisional installs into undo obligations that
///     only matching kTxnUndo events (restoring the shadow version)
///     discharge — any later transactional event or Finish() with
///     obligations outstanding means an aborted write stayed visible
///     (catches kSkipAbortUndo).
///  8. *Placement* — at every session boundary, after every pool restart
///     and at Finish(), ddc::MemorySystem::AuditPlacement() finds the
///     records of which pages each compute cache and pool shard holds
///     consistent: every cached page in exactly one cache and mapped,
///     every pool page in its home shard only, used() counts that match
///     the members and fit the capacity, and no CLOCK bit on a non-member.
///
/// The checker is an observer: it never mutates the system, costs no
/// virtual time, and can be attached to any kBaseDdc MemorySystem — tests
/// attach it wholesale and assert zero violations, and the mutation tests
/// (ddc::ProtocolMutation) prove it actually catches planted protocol bugs.
class ModelChecker : public ddc::CoherenceObserver {
 public:
  enum class OnViolation {
    kAbort,   ///< TELEPORT_CHECK-fail at the first violation (default)
    kRecord,  ///< keep running, collect violations (expected-failure tests)
  };

  struct Violation {
    uint64_t step = 0;  ///< index of the offending event (0-based)
    ddc::CoherenceEvent event;
    std::string message;
  };

  /// Attaches to `ms` (replacing any previous observer) and snapshots its
  /// current page table as the model's initial state.
  explicit ModelChecker(ddc::MemorySystem* ms,
                        OnViolation action = OnViolation::kAbort);
  ~ModelChecker() override;

  ModelChecker(const ModelChecker&) = delete;
  ModelChecker& operator=(const ModelChecker&) = delete;

  void OnCoherenceEvent(const ddc::CoherenceEvent& ev) override;

  /// End-of-run drain check; detaches from the system. Returns the total
  /// violation count (0 for a clean run). Idempotent.
  uint64_t Finish();

  uint64_t steps() const { return steps_; }
  bool ok() const { return violations_.empty(); }
  const std::vector<Violation>& violations() const { return violations_; }

 private:
  /// Model state of one page. Versions: `master` is the newest write
  /// anywhere; `compute_v` the version held by the compute-cache copy;
  /// `home_v` the version of the pool/storage ("home") copy.
  struct PageModel {
    ddc::Perm compute = ddc::Perm::kNone;
    ddc::Perm temp = ddc::Perm::kNone;
    bool dirty = false;
    uint64_t master = 0;
    uint64_t compute_v = 0;
    uint64_t home_v = 0;
  };

  PageModel& Page(ddc::PageId p);
  void Fail(const ddc::CoherenceEvent& ev, std::string message);

  /// Whether `ev` reflects a state transition that obliges a TLB shootdown
  /// (translation-epoch bump), judged from the *model's* pre-step state so
  /// an implementation that forgot the transition cannot also excuse the
  /// missing shootdown.
  bool RequiresShootdown(const ddc::CoherenceEvent& ev);

  // Spec transitions (mirror memory_system.cc, independently derived from
  // the paper's Figs 8/9 — agreement is the point).
  void StepComputeAccess(const ddc::CoherenceEvent& ev);
  void StepMemoryAccess(const ddc::CoherenceEvent& ev);
  void StepSessionBegin(const ddc::CoherenceEvent& ev);
  void StepSessionEnd(const ddc::CoherenceEvent& ev);

  // Invariant checks for the page touched by `ev`.
  void CheckAgainstImpl(const ddc::CoherenceEvent& ev, ddc::PageId p);
  void CheckSwmr(const ddc::CoherenceEvent& ev, ddc::PageId p);
  /// Invariant 8: records a violation when the placement audit fails.
  void CheckPlacement(const ddc::CoherenceEvent& ev);

  ddc::MemorySystem* ms_;
  const OnViolation action_;
  std::vector<PageModel> pages_;
  bool session_active_ = false;
  ddc::CoherenceMode mode_ = ddc::CoherenceMode::kMesi;
  /// Translation epoch observed by the previous event (shootdown check).
  uint64_t last_epoch_ = 0;
  // Invariant 6 state (all empty/zero unless journal events arrive).
  std::vector<uint8_t> journaled_;  ///< page has an acknowledged redo record
  /// Pages a recovery still owes a kPoolRecover for (set at kPoolRestart).
  std::vector<uint8_t> pending_recover_;
  uint64_t pending_recover_count_ = 0;
  /// Per-shard epoch announced by that shard's latest kPoolRestart (PR7:
  /// leases fence shard-by-shard; index = shard id).
  std::vector<uint64_t> pool_epoch_model_;
  std::vector<uint8_t> token_executed_;  ///< idempotency tokens applied
  // Invariant 7 state (all empty/zero unless kTxn* events arrive). Keys are
  // dense record keys (the oltp engine numbers them from 0).
  struct TxnSession {
    std::vector<std::pair<uint64_t, uint64_t>> reads;   ///< (key, version)
    std::vector<std::pair<uint64_t, uint64_t>> writes;  ///< (key, new vers.)
  };
  TxnSession& Session(int id);
  void StepTxnEvent(const ddc::CoherenceEvent& ev);
  std::vector<TxnSession> txn_sessions_;
  std::vector<uint64_t> committed_version_;  ///< shadow, by record key
  /// Undo obligations of the in-progress abort: (key, version the undo must
  /// restore). Discharged strictly before the next transactional event.
  std::vector<std::pair<uint64_t, uint64_t>> pending_undo_;
  uint64_t last_commit_seq_ = 0;
  uint64_t steps_ = 0;
  std::vector<Violation> violations_;
  bool attached_ = false;
};

}  // namespace teleport::tp

#endif  // TELEPORT_TELEPORT_MODEL_CHECKER_H_
