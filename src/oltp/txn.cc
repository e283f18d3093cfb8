#include "oltp/txn.h"

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"

namespace teleport::oltp {

namespace {

// Record word offsets within a leaf slot ({key, value, meta, seq}).
constexpr uint64_t kValueOff = 8;
constexpr uint64_t kMetaOff = 16;
constexpr uint64_t kSeqOff = 24;
using Kind = ddc::CoherenceEvent::Kind;

}  // namespace

Txn::WriteOp* Txn::FindWrite(uint64_t key) {
  for (WriteOp& w : writes_) {
    if (w.key == key) return &w;
  }
  return nullptr;
}

Txn::ReadResult Txn::Read(ddc::ExecutionContext& ctx, uint64_t key) {
  if (const WriteOp* w = FindWrite(key)) {
    return {/*found=*/true, w->value, /*version=*/0};
  }
  BTree& tree = mgr_->tree();
  ddc::MemorySystem& ms = *mgr_->ms_;
  for (;;) {
    const ddc::VAddr slot = tree.ProbeRecord(ctx, key);
    if (slot == 0) {
      // Absent keys read as committed version 0 and still join the read
      // set: a concurrent insert of this key must fail our validation.
      reads_.emplace_back(key, 0);
      ms.NotifyTxnEvent(Kind::kTxnRead, key, 0, session_, ctx.now());
      return {};
    }
    const uint64_t s0 = ctx.Load<uint64_t>(slot + kSeqOff);
    if ((s0 & 1) != 0) {  // committer mid-flight on this record
      // Only another simulated thread can finish that commit, and one runs
      // only while this context yields.
      TELEPORT_CHECK(ctx.yield_fn() != nullptr)
          << "record of key " << key << " reads odd seq " << s0
          << " on a context without a yield hook: no committer can finish";
      ctx.ChargeCpu(1);
      continue;
    }
    if (ctx.Load<uint64_t>(slot) != key) continue;  // stale addr: re-probe
    const uint64_t meta = ctx.Load<uint64_t>(slot + kMetaOff);
    const uint64_t value = ctx.Load<uint64_t>(slot + kValueOff);
    // The snapshot is consistent iff the seq word held still (it bumps on
    // every lock acquire and release and is never restored — unlike meta,
    // which an abort rolls back to its exact old word) and the slot still
    // holds our key (a split may have shifted records under us).
    const uint64_t s1 = ctx.Load<uint64_t>(slot + kSeqOff);
    if (s1 != s0 || ctx.Load<uint64_t>(slot) != key) {
      ctx.ChargeCpu(1);
      continue;
    }
    const uint64_t version = RecordMeta::Version(meta);
    reads_.emplace_back(key, version);
    ms.NotifyTxnEvent(Kind::kTxnRead, key, version, session_, ctx.now());
    return {RecordMeta::Present(meta), value, version};
  }
}

void Txn::Update(ddc::ExecutionContext& ctx, uint64_t key, uint64_t delta) {
  const ReadResult r = Read(ctx, key);
  const uint64_t base = r.found ? r.value : 0;
  Put(key, base + delta);
}

void Txn::Put(uint64_t key, uint64_t value) {
  if (WriteOp* w = FindWrite(key)) {
    w->value = value;
    return;
  }
  writes_.push_back({key, value});
}

Txn::ScanResult Txn::Scan(ddc::ExecutionContext& ctx, uint64_t start,
                          int max_records) {
  ScanResult out;
  BTree& tree = mgr_->tree();
  ddc::VAddr node = tree.FindLeaf(ctx, start);
  uint64_t cursor = start;
  while (node != 0 && out.records < static_cast<uint64_t>(max_records)) {
    const BTree::NodeView v = tree.ReadNode(ctx, node);
    for (int i = 0;
         i < v.count && out.records < static_cast<uint64_t>(max_records);
         ++i) {
      const uint64_t key = v.key(i);
      if (key < cursor) continue;
      // Re-read the record through the full point-read protocol (seq-lock
      // snapshot + read-set entry + kTxnRead): the node snapshot above is
      // only trusted for *keys* — values and meta are written outside the
      // node seqlock and may be torn or provisional in `v.words`.
      const ReadResult r = Read(ctx, key);
      if (!r.found) continue;  // absent marker
      out.digest = Mix64(out.digest ^ key);
      out.digest = Mix64(out.digest ^ r.value);
      ++out.records;
    }
    cursor = v.count > 0 ? v.key(v.count - 1) + 1 : cursor;
    node = v.next;
  }
  return out;
}

void Txn::AcquireLatch(ddc::ExecutionContext& ctx) {
  // latch_ is host state: the test is free and cannot yield, so the
  // test-then-set pair is atomic under cooperative scheduling. Waiters pay
  // charged CPU (which yields) between probes.
  while (mgr_->latch_) ctx.ChargeCpu(1);
  mgr_->latch_ = true;
  ctx.ChargeCpu(1);  // acquisition cost, paid with the latch held
}

void Txn::ReleaseLatch() { mgr_->latch_ = false; }

ddc::VAddr Txn::ResolveLocked(ddc::ExecutionContext& ctx, uint64_t key) {
  return mgr_->tree().FindRecord(ctx, key);
}

bool Txn::Commit(ddc::ExecutionContext& ctx) {
  TELEPORT_CHECK(!done_) << "Txn objects are single-shot";
  done_ = true;
  ddc::MemorySystem& ms = *mgr_->ms_;
  BTree& tree = mgr_->tree();
  std::sort(writes_.begin(), writes_.end(),
            [](const WriteOp& a, const WriteOp& b) { return a.key < b.key; });
  AcquireLatch(ctx);
  // 1. Install provisional writes in key order, each under its record's
  //    seq lock (acquired *before* the stores so concurrent readers spin
  //    instead of observing half-written records).
  for (const WriteOp& w : writes_) {
    const ddc::VAddr slot = tree.InsertSlot(ctx, w.key);
    const uint64_t seq = ctx.Load<uint64_t>(slot + kSeqOff);
    TELEPORT_DCHECK((seq & 1) == 0) << "record locked while latch held";
    ctx.Store<uint64_t>(slot + kSeqOff, seq + 1);
    const uint64_t old_value = ctx.Load<uint64_t>(slot + kValueOff);
    const uint64_t old_meta = ctx.Load<uint64_t>(slot + kMetaOff);
    const uint64_t new_version = RecordMeta::Version(old_meta) + 1;
    ctx.Store<uint64_t>(slot + kValueOff, w.value);
    ctx.Store<uint64_t>(slot + kMetaOff,
                        RecordMeta::Pack(new_version, /*present=*/true));
    undo_.push_back({w.key, old_value, old_meta});
    ms.NotifyTxnEvent(Kind::kTxnWrite, w.key, new_version, session_,
                      ctx.now());
  }
  // 2. Validate the read set against current committed versions. Own
  //    writes compare against the pre-install meta captured in the undo
  //    log; everything else is re-resolved under the latch (exact — only
  //    the latch holder mutates the tree or any record).
  bool valid = true;
  if (ms.protocol_mutation() != ddc::ProtocolMutation::kSkipOccValidation) {
    for (const auto& [key, version] : reads_) {
      const UndoEntry* own = nullptr;
      for (const UndoEntry& u : undo_) {
        if (u.key == key) {
          own = &u;
          break;
        }
      }
      uint64_t current = 0;
      if (own != nullptr) {
        current = RecordMeta::Version(own->old_meta);
      } else {
        const ddc::VAddr slot = ResolveLocked(ctx, key);
        if (slot != 0) {
          current = RecordMeta::Version(ctx.Load<uint64_t>(slot + kMetaOff));
        }
      }
      ++ctx.metrics().txn_reads_validated;
      if (current != version) valid = false;
    }
  }
  if (valid) {
    // 3a. Commit: publish the sequence point first, then release each
    //     record's seq lock (the installed words are the committed state).
    //     Readers of a still-locked record spin, so none can observe a new
    //     version before the kTxnCommit event lands at the checker.
    const uint64_t seq_no = ++mgr_->commit_seq_;
    ms.NotifyTxnEvent(Kind::kTxnCommit, 0, seq_no, session_, ctx.now());
    for (const WriteOp& w : writes_) {
      const ddc::VAddr slot = ResolveLocked(ctx, w.key);
      TELEPORT_CHECK(slot != 0);
      const uint64_t seq = ctx.Load<uint64_t>(slot + kSeqOff);
      ctx.Store<uint64_t>(slot + kSeqOff, seq + 1);
    }
    ++ctx.metrics().txn_commits;
    if (mgr_->tracer_ != nullptr) {
      mgr_->tracer_->Instant(kTraceCategory, kTraceCommit, ctx.now(),
                             sim::kTrackCompute);
    }
    ReleaseLatch();
    return true;
  }
  // 3b. Abort: roll back in reverse install order. Each kTxnUndo is
  //     emitted *before* its restoring stores — the record is still
  //     seq-locked at that point, so no reader can emit a kTxnRead of the
  //     key between the checker discharging the obligation and the old
  //     words actually reappearing.
  ms.NotifyTxnEvent(Kind::kTxnAbort, 0, 0, session_, ctx.now());
  const bool skip_undo =
      ms.protocol_mutation() == ddc::ProtocolMutation::kSkipAbortUndo;
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
    const ddc::VAddr slot = ResolveLocked(ctx, it->key);
    TELEPORT_CHECK(slot != 0);
    if (!skip_undo) {
      ms.NotifyTxnEvent(Kind::kTxnUndo, it->key,
                        RecordMeta::Version(it->old_meta), session_,
                        ctx.now());
      ctx.Store<uint64_t>(slot + kValueOff, it->old_value);
      ++ctx.metrics().txn_undo_writes;
    }
    // kSkipAbortUndo: restore meta (version validation can never tell) but
    // leave the provisional value in place and emit no kTxnUndo — a pure
    // value corruption only the checker's undo obligations catch.
    ctx.Store<uint64_t>(slot + kMetaOff, it->old_meta);
    const uint64_t seq = ctx.Load<uint64_t>(slot + kSeqOff);
    ctx.Store<uint64_t>(slot + kSeqOff, seq + 1);  // fresh, never-restored
  }
  ++ctx.metrics().txn_aborts;
  if (mgr_->tracer_ != nullptr) {
    mgr_->tracer_->Instant(kTraceCategory, kTraceAbort, ctx.now(),
                           sim::kTrackCompute);
  }
  ReleaseLatch();
  return false;
}

}  // namespace teleport::oltp
