#include "teleport/model_checker.h"

#include <sstream>

#include "common/logging.h"

namespace teleport::tp {

namespace {
using ddc::CoherenceEvent;
using ddc::CoherenceMode;
using ddc::Perm;

const char* PermName(Perm p) {
  switch (p) {
    case Perm::kNone:
      return "None";
    case Perm::kRead:
      return "R";
    case Perm::kWrite:
      return "W";
  }
  return "?";
}
}  // namespace

ModelChecker::ModelChecker(ddc::MemorySystem* ms, OnViolation action)
    : ms_(ms), action_(action) {
  TELEPORT_CHECK(ms_->config().platform == ddc::Platform::kBaseDdc)
      << "ModelChecker shadows the DDC coherence paths only";
  // Snapshot the implementation's page table as the model's start state.
  // A page that is dirty at attach holds the only copy of its latest
  // (abstract) version; everything else is in sync at version 0.
  pages_.resize(ms_->tracked_pages());
  for (ddc::PageId p = 0; p < pages_.size(); ++p) {
    PageModel& m = pages_[p];
    m.compute = ms_->compute_perm(p);
    m.temp = ms_->temp_perm(p);
    m.dirty = ms_->compute_dirty(p);
    if (m.dirty) {
      m.master = m.compute_v = 1;
      m.home_v = 0;
    }
  }
  session_active_ = ms_->pushdown_active();
  mode_ = ms_->coherence_mode();
  pool_epoch_model_.resize(static_cast<size_t>(ms_->memory_shards()));
  for (int k = 0; k < ms_->memory_shards(); ++k) {
    pool_epoch_model_[static_cast<size_t>(k)] = ms_->pool_epoch(k);
  }
  ms_->set_coherence_observer(this);
  // After the attach (which itself bumps the epoch), so the first checked
  // transition needs a bump of its own.
  last_epoch_ = ms_->translation_epoch();
  attached_ = true;
}

ModelChecker::~ModelChecker() {
  if (attached_ && ms_->coherence_observer() == this) {
    ms_->set_coherence_observer(nullptr);
  }
}

ModelChecker::PageModel& ModelChecker::Page(ddc::PageId p) {
  if (p >= pages_.size()) pages_.resize(p + 1);
  return pages_[p];
}

void ModelChecker::Fail(const CoherenceEvent& ev, std::string message) {
  std::ostringstream os;
  os << "step " << steps_ << " [" << ddc::CoherenceEventKindToString(ev.kind)
     << " page=" << ev.page << " write=" << ev.write << " mode="
     << ddc::CoherenceModeToString(ev.mode) << "]: " << message;
  violations_.push_back(Violation{steps_, ev, os.str()});
  if (action_ == OnViolation::kAbort) {
    TELEPORT_CHECK(false) << "coherence model violation: " << os.str();
  }
}

void ModelChecker::CheckAgainstImpl(const CoherenceEvent& ev, ddc::PageId p) {
  if (p >= ms_->tracked_pages()) return;
  const PageModel& m = Page(p);
  if (m.compute != ms_->compute_perm(p) || m.temp != ms_->temp_perm(p) ||
      m.dirty != ms_->compute_dirty(p)) {
    std::ostringstream os;
    os << "spec/impl mismatch on page " << p << ": spec{compute="
       << PermName(m.compute) << " temp=" << PermName(m.temp)
       << " dirty=" << m.dirty << "} impl{compute="
       << PermName(ms_->compute_perm(p)) << " temp="
       << PermName(ms_->temp_perm(p)) << " dirty=" << ms_->compute_dirty(p)
       << "}";
    Fail(ev, os.str());
    // Resync so one impl bug reports once, not on every later event.
    PageModel& mm = Page(p);
    mm.compute = ms_->compute_perm(p);
    mm.temp = ms_->temp_perm(p);
    mm.dirty = ms_->compute_dirty(p);
  }
}

void ModelChecker::CheckSwmr(const CoherenceEvent& ev, ddc::PageId p) {
  if (!session_active_ || p >= ms_->tracked_pages()) return;
  const Perm c = ms_->compute_perm(p);
  const Perm t = ms_->temp_perm(p);
  if (mode_ == CoherenceMode::kMesi) {
    if ((c == Perm::kWrite && t != Perm::kNone) ||
        (t == Perm::kWrite && c != Perm::kNone)) {
      std::ostringstream os;
      os << "SWMR violated on page " << p << ": compute=" << PermName(c)
         << " temp=" << PermName(t);
      Fail(ev, os.str());
    }
  } else if (mode_ == CoherenceMode::kPso) {
    if (c == Perm::kWrite && t == Perm::kWrite) {
      std::ostringstream os;
      os << "PSO single-writer violated on page " << p;
      Fail(ev, os.str());
    }
  }
  // kWeakOrdering and kNone permit concurrent writers by design.
}

void ModelChecker::StepComputeAccess(const CoherenceEvent& ev) {
  const bool w = ev.write;
  PageModel& m = Page(ev.page);
  const bool sufficient =
      m.compute == Perm::kWrite || (!w && m.compute == Perm::kRead);
  if (sufficient) {
    // Cache hit: no permission movement.
  } else if (session_active_ && mode_ != CoherenceMode::kNone) {
    // Spec of CoherenceComputeFault (Figs 8/9).
    if (mode_ == CoherenceMode::kWeakOrdering && m.compute != Perm::kNone) {
      m.compute = Perm::kWrite;  // silent upgrade, no remote traffic
    } else {
      if (mode_ != CoherenceMode::kWeakOrdering) {
        // Memory-side handler invalidates/downgrades the temp mapping.
        if (w) {
          if (m.temp != Perm::kNone) {
            m.temp = mode_ == CoherenceMode::kPso ? Perm::kRead : Perm::kNone;
          }
        } else if (m.temp == Perm::kWrite) {
          m.temp = Perm::kRead;
        }
      }
      const bool need_data = m.compute == Perm::kNone;
      if (need_data) {
        m.compute_v = m.home_v;  // fill travels with the reply
        m.dirty = false;
      }
      m.compute = w ? Perm::kWrite : Perm::kRead;
    }
  } else if (m.compute != Perm::kNone) {
    m.compute = Perm::kWrite;  // local R->W upgrade (writes only)
  } else {
    m.compute_v = m.home_v;  // plain fault fill from the pool
    m.dirty = false;
    m.compute = w ? Perm::kWrite : Perm::kRead;
  }
  if (w) {
    m.dirty = true;
    m.compute_v = ++m.master;
  } else if (session_active_ && mode_ == CoherenceMode::kMesi &&
             m.compute_v != m.master) {
    std::ostringstream os;
    os << "stale read on page " << ev.page << ": compute copy holds v"
       << m.compute_v << ", latest write is v" << m.master;
    Fail(ev, os.str());
    m.compute_v = m.master;  // resync
  }
}

void ModelChecker::StepMemoryAccess(const CoherenceEvent& ev) {
  const bool w = ev.write;
  PageModel& m = Page(ev.page);
  if (session_active_ && mode_ != CoherenceMode::kNone) {
    const bool sufficient =
        m.temp == Perm::kWrite || (!w && m.temp == Perm::kRead);
    if (!sufficient) {
      // Spec of CoherenceMemoryFault (Fig 9).
      const Perm wanted = w ? Perm::kWrite : Perm::kRead;
      if (mode_ == CoherenceMode::kWeakOrdering ||
          m.compute == Perm::kNone) {
        m.temp = wanted;  // nothing to reconcile with the compute pool
      } else {
        if (m.dirty) {
          // The fresher compute copy rides back with the reply.
          m.dirty = false;
          m.home_v = m.compute_v;
        }
        if (w) {
          m.compute =
              mode_ == CoherenceMode::kPso ? Perm::kRead : Perm::kNone;
        } else if (m.compute == Perm::kWrite) {
          m.compute = Perm::kRead;
        }
        m.temp = wanted;
      }
    }
  }
  if (w) {
    m.home_v = ++m.master;  // temp writes land directly in the pool
  } else if (session_active_ && mode_ == CoherenceMode::kMesi &&
             m.home_v != m.master) {
    std::ostringstream os;
    os << "stale read on page " << ev.page << ": pool copy holds v"
       << m.home_v << ", latest write is v" << m.master;
    Fail(ev, os.str());
    m.home_v = m.master;  // resync
  }
}

void ModelChecker::StepSessionBegin(const CoherenceEvent& ev) {
  // Invariant 6b: the session's admission epoch must be the epoch of its
  // home shard's latest recovery — executing under an older lease means a
  // fenced session's effects would become visible. ev.node carries the home
  // shard (always 0 on a 1x1 rack).
  const size_t home =
      ev.node >= 0 && static_cast<size_t>(ev.node) < pool_epoch_model_.size()
          ? static_cast<size_t>(ev.node)
          : 0;
  if (ev.epoch != pool_epoch_model_[home]) {
    std::ostringstream os;
    os << "stale-epoch session admitted: lease epoch " << ev.epoch
       << " but home shard " << ev.node << " recovered into epoch "
       << pool_epoch_model_[home] << " (fencing skipped)";
    Fail(ev, os.str());
  }
  session_active_ = true;
  mode_ = ev.mode;
  if (pages_.size() < ms_->tracked_pages()) {
    pages_.resize(ms_->tracked_pages());
  }
  for (ddc::PageId p = 0; p < pages_.size(); ++p) {
    PageModel& m = pages_[p];
    if (mode_ == CoherenceMode::kNone) {
      m.temp = Perm::kWrite;
      continue;
    }
    // Fig 8 temporary page table: compute-writable pages are unmapped,
    // compute-read pages map read-only, uncached pages map writable.
    switch (m.compute) {
      case Perm::kWrite:
        m.temp = Perm::kNone;
        break;
      case Perm::kRead:
        m.temp = Perm::kRead;
        break;
      case Perm::kNone:
        m.temp = Perm::kWrite;
        break;
    }
  }
  // Full-table audit at the boundary: catches drift anywhere, not just on
  // pages the workload happens to touch next.
  for (ddc::PageId p = 0; p < pages_.size(); ++p) CheckAgainstImpl(ev, p);
}

void ModelChecker::StepSessionEnd(const CoherenceEvent& ev) {
  for (ddc::PageId p = 0; p < pages_.size(); ++p) {
    pages_[p].temp = Perm::kNone;
  }
  session_active_ = false;
  // Drain: the implementation must also have cleared every temp mapping.
  for (ddc::PageId p = 0; p < pages_.size(); ++p) CheckAgainstImpl(ev, p);
}

bool ModelChecker::RequiresShootdown(const CoherenceEvent& ev) {
  switch (ev.kind) {
    case CoherenceEvent::Kind::kComputeAccess: {
      // Obliged only when the access is not a plain hit under the model's
      // pre-step permissions (fault, upgrade, or coherence transition).
      const PageModel& m = Page(ev.page);
      return !(m.compute == Perm::kWrite ||
               (!ev.write && m.compute == Perm::kRead));
    }
    case CoherenceEvent::Kind::kMemoryAccess: {
      // Transitions only happen under an active coherent session; plain
      // pool faults also bump, but the model cannot see pool residency so
      // it does not insist.
      if (!session_active_ || mode_ == CoherenceMode::kNone) return false;
      const PageModel& m = Page(ev.page);
      return !(m.temp == Perm::kWrite ||
               (!ev.write && m.temp == Perm::kRead));
    }
    case CoherenceEvent::Kind::kPoolRecover:
    case CoherenceEvent::Kind::kJournalCommit:
    case CoherenceEvent::Kind::kJournalTruncate:
    case CoherenceEvent::Kind::kPushdownAdmit:
    case CoherenceEvent::Kind::kTxnRead:
    case CoherenceEvent::Kind::kTxnWrite:
    case CoherenceEvent::Kind::kTxnCommit:
    case CoherenceEvent::Kind::kTxnAbort:
    case CoherenceEvent::Kind::kTxnUndo:
      // Journal bookkeeping, admission decisions and engine-level
      // transactional events touch no mapping; the recovery wipe's own
      // shootdown is checked on kPoolRestart.
      return false;
    default:
      // Evictions, fills, writebacks, flushes, refetches, restarts and
      // session boundaries always rewrite page state.
      return true;
  }
}

ModelChecker::TxnSession& ModelChecker::Session(int id) {
  const size_t i = id < 0 ? 0 : static_cast<size_t>(id);
  if (i >= txn_sessions_.size()) txn_sessions_.resize(i + 1);
  return txn_sessions_[i];
}

void ModelChecker::StepTxnEvent(const CoherenceEvent& ev) {
  const uint64_t key = ev.page;
  auto shadow = [this](uint64_t k) -> uint64_t& {
    if (k >= committed_version_.size()) committed_version_.resize(k + 1, 0);
    return committed_version_[k];
  };
  // Invariant 7c: an abort's undo obligations are discharged while the
  // aborting session still holds the commit latch and the obligated
  // records' locks, so in a correct run no install/commit/abort — and no
  // read of an obligated record — can interleave before the last kTxnUndo.
  if (!pending_undo_.empty() && ev.kind != CoherenceEvent::Kind::kTxnUndo) {
    bool conflict = ev.kind != CoherenceEvent::Kind::kTxnRead;
    if (!conflict) {
      for (const auto& [k, v] : pending_undo_) {
        if (k == key) conflict = true;
      }
    }
    if (conflict) {
      std::ostringstream os;
      os << pending_undo_.size()
         << " aborted provisional write(s) still visible at the next "
            "transactional event (abort undo skipped?)";
      Fail(ev, os.str());
      pending_undo_.clear();
    }
  }
  switch (ev.kind) {
    case CoherenceEvent::Kind::kTxnRead: {
      // 7a: reads observe committed versions only — a provisional (or
      // otherwise unannounced) version is a dirty read.
      if (ev.epoch != shadow(key)) {
        std::ostringstream os;
        os << "txn read of key " << key << " observed version " << ev.epoch
           << " but the latest committed version is " << shadow(key)
           << " (dirty or torn read)";
        Fail(ev, os.str());
      }
      Session(ev.node).reads.emplace_back(key, ev.epoch);
      break;
    }
    case CoherenceEvent::Kind::kTxnWrite: {
      // Provisional install under the commit latch: must propose exactly
      // the successor of the committed version.
      if (ev.epoch != shadow(key) + 1) {
        std::ostringstream os;
        os << "provisional install of key " << key << " proposes version "
           << ev.epoch << ", expected " << shadow(key) + 1
           << " (must bump the committed version by exactly one)";
        Fail(ev, os.str());
      }
      Session(ev.node).writes.emplace_back(key, ev.epoch);
      break;
    }
    case CoherenceEvent::Kind::kTxnCommit: {
      TxnSession& s = Session(ev.node);
      // 7b: the whole read set must still match the shadow committed
      // versions — a racing commit in between means validation had to
      // abort this transaction (catches kSkipOccValidation).
      for (const auto& [k, v] : s.reads) {
        if (shadow(k) != v) {
          std::ostringstream os;
          os << "session " << ev.node << " committed against a stale read: "
             << "key " << k << " was observed at version " << v
             << " but committed version is now " << shadow(k)
             << " (OCC validation skipped?)";
          Fail(ev, os.str());
        }
      }
      // Commits are latch-serialized: sequence numbers strictly increase.
      if (ev.epoch <= last_commit_seq_) {
        std::ostringstream os;
        os << "commit sequence " << ev.epoch
           << " not past the previous commit " << last_commit_seq_;
        Fail(ev, os.str());
      }
      last_commit_seq_ = ev.epoch;
      for (const auto& [k, nv] : s.writes) shadow(k) = nv;
      s.reads.clear();
      s.writes.clear();
      break;
    }
    case CoherenceEvent::Kind::kTxnAbort: {
      TxnSession& s = Session(ev.node);
      for (const auto& [k, nv] : s.writes) {
        pending_undo_.emplace_back(k, shadow(k));
      }
      s.reads.clear();
      s.writes.clear();
      break;
    }
    case CoherenceEvent::Kind::kTxnUndo: {
      bool found = false;
      for (auto it = pending_undo_.begin(); it != pending_undo_.end(); ++it) {
        if (it->first == key) {
          if (it->second != ev.epoch) {
            std::ostringstream os;
            os << "undo of key " << key << " restored version " << ev.epoch
               << ", expected committed version " << it->second;
            Fail(ev, os.str());
          }
          pending_undo_.erase(it);
          found = true;
          break;
        }
      }
      if (!found) {
        std::ostringstream os;
        os << "undo of key " << key
           << " with no matching provisional install to roll back";
        Fail(ev, os.str());
      }
      break;
    }
    default:
      break;
  }
}

void ModelChecker::OnCoherenceEvent(const CoherenceEvent& ev) {
  // Journal bookkeeping and admission decisions are observer-only: they
  // ride between an epoch bump and the page-state event that earned it
  // (e.g. kJournalCommit precedes the kComputeEvict it acknowledges), so
  // they must neither consume the bump nor be audited for one.
  const bool txn_event = ev.kind == CoherenceEvent::Kind::kTxnRead ||
                         ev.kind == CoherenceEvent::Kind::kTxnWrite ||
                         ev.kind == CoherenceEvent::Kind::kTxnCommit ||
                         ev.kind == CoherenceEvent::Kind::kTxnAbort ||
                         ev.kind == CoherenceEvent::Kind::kTxnUndo;
  const bool bookkeeping =
      ev.kind == CoherenceEvent::Kind::kPoolRecover ||
      ev.kind == CoherenceEvent::Kind::kJournalCommit ||
      ev.kind == CoherenceEvent::Kind::kJournalTruncate ||
      ev.kind == CoherenceEvent::Kind::kPushdownAdmit || txn_event;
  const uint64_t epoch = ms_->translation_epoch();
  if (!bookkeeping) {
    if (epoch == last_epoch_ && RequiresShootdown(ev)) {
      Fail(ev,
           "missing TLB shootdown: translation epoch unchanged across a "
           "coherence transition (pinned fast-path translations would "
           "survive a state change)");
    }
    last_epoch_ = epoch;
  }
  // Invariant 6a: once a recovery announced itself (kPoolRestart), every
  // acknowledged page must be re-materialized (kPoolRecover) before the
  // protocol moves on — any other event with obligations outstanding means
  // replay was skipped or truncated. Reported once, then cleared, so one
  // planted bug does not cascade into a violation per subsequent event.
  if (pending_recover_count_ > 0 &&
      ev.kind != CoherenceEvent::Kind::kPoolRecover) {
    std::ostringstream os;
    os << pending_recover_count_
       << " acknowledged write(s) not re-materialized after pool recovery "
          "(journal replay skipped?)";
    Fail(ev, os.str());
    pending_recover_.assign(pending_recover_.size(), 0);
    pending_recover_count_ = 0;
  }
  if (txn_event) {
    StepTxnEvent(ev);
    ++steps_;
    return;
  }
  switch (ev.kind) {
    case CoherenceEvent::Kind::kSessionBegin:
      StepSessionBegin(ev);
      CheckPlacement(ev);
      ++steps_;
      return;
    case CoherenceEvent::Kind::kSessionEnd:
      StepSessionEnd(ev);
      CheckPlacement(ev);
      ++steps_;
      return;
    case CoherenceEvent::Kind::kComputeAccess:
      StepComputeAccess(ev);
      break;
    case CoherenceEvent::Kind::kMemoryAccess:
      StepMemoryAccess(ev);
      break;
    case CoherenceEvent::Kind::kComputeEvict: {
      PageModel& m = Page(ev.page);
      if (m.dirty) {
        m.dirty = false;
        m.home_v = m.compute_v;  // writeback to the pool
      }
      m.compute = Perm::kNone;
      break;
    }
    case CoherenceEvent::Kind::kPrefetchFill: {
      PageModel& m = Page(ev.page);
      m.compute = Perm::kRead;
      m.dirty = false;
      m.compute_v = m.home_v;
      break;
    }
    case CoherenceEvent::Kind::kSyncmemPage: {
      PageModel& m = Page(ev.page);
      m.dirty = false;
      m.home_v = m.compute_v;
      m.compute = Perm::kRead;
      if (session_active_ && mode_ != CoherenceMode::kNone &&
          m.temp == Perm::kNone) {
        m.temp = Perm::kRead;
      }
      break;
    }
    case CoherenceEvent::Kind::kFlushPage: {
      PageModel& m = Page(ev.page);
      if (m.dirty) {
        m.dirty = false;
        m.home_v = m.compute_v;
      }
      if (ev.write) m.compute = Perm::kNone;  // write := dropped
      break;
    }
    case CoherenceEvent::Kind::kRefetchPage: {
      PageModel& m = Page(ev.page);
      m.compute = Perm::kRead;
      m.dirty = false;
      m.compute_v = m.home_v;
      break;
    }
    case CoherenceEvent::Kind::kPoolRestart: {
      // The data plane is host memory (ground truth): after the wipe, a
      // refault serves the freshest bytes even though the timing model
      // charged a storage trip. Lost writes are accounted in metrics, not
      // materialized as stale data, so "home" holds the latest version.
      // ev.node is the restarting shard: only its page slice was wiped, only
      // its lease epoch advances, and only its journaled pages become
      // obligations — a recovery of shard A can never discharge (or create)
      // shard B's obligations.
      const int shard = ev.node;
      for (ddc::PageId p = 0; p < pages_.size(); ++p) {
        if (ms_->ShardOf(p) == shard) pages_[p].home_v = pages_[p].master;
      }
      if (shard >= 0 &&
          static_cast<size_t>(shard) < pool_epoch_model_.size()) {
        pool_epoch_model_[static_cast<size_t>(shard)] = ev.epoch;
      }
      if (pending_recover_.size() < journaled_.size()) {
        pending_recover_.resize(journaled_.size(), 0);
      }
      for (ddc::PageId p = 0; p < journaled_.size(); ++p) {
        if (journaled_[p] && ms_->ShardOf(p) == shard &&
            !pending_recover_[p]) {
          pending_recover_[p] = 1;
          ++pending_recover_count_;
        }
      }
      CheckPlacement(ev);
      ++steps_;
      return;
    }
    case CoherenceEvent::Kind::kPoolRecover: {
      if (ev.page < pending_recover_.size() && pending_recover_[ev.page]) {
        pending_recover_[ev.page] = 0;
        --pending_recover_count_;
      } else {
        Fail(ev,
             "recovery re-materialized a page with no acknowledged journal "
             "record");
      }
      ++steps_;
      return;
    }
    case CoherenceEvent::Kind::kJournalCommit: {
      if (ev.page >= journaled_.size()) journaled_.resize(ev.page + 1, 0);
      journaled_[ev.page] = 1;
      ++steps_;
      return;
    }
    case CoherenceEvent::Kind::kJournalTruncate: {
      if (ev.page < journaled_.size()) journaled_[ev.page] = 0;
      ++steps_;
      return;
    }
    case CoherenceEvent::Kind::kTxnRead:
    case CoherenceEvent::Kind::kTxnWrite:
    case CoherenceEvent::Kind::kTxnCommit:
    case CoherenceEvent::Kind::kTxnAbort:
    case CoherenceEvent::Kind::kTxnUndo:
      return;  // handled by StepTxnEvent before the switch
    case CoherenceEvent::Kind::kPushdownAdmit: {
      // Invariant 6c: ev.page is the idempotency token, ev.write says the
      // pool chose to execute this delivery.
      const uint64_t token = ev.page;
      if (token >= token_executed_.size()) token_executed_.resize(token + 1, 0);
      if (ev.write) {
        if (token_executed_[token]) {
          std::ostringstream os;
          os << "exactly-once violated: token " << token
             << " executed twice (duplicate delivery re-applied)";
          Fail(ev, os.str());
        }
        token_executed_[token] = 1;
      } else if (!token_executed_[token]) {
        std::ostringstream os;
        os << "exactly-once violated: dedup absorbed the first delivery of "
              "token "
           << token;
        Fail(ev, os.str());
      }
      ++steps_;
      return;
    }
  }
  CheckAgainstImpl(ev, ev.page);
  CheckSwmr(ev, ev.page);
  ++steps_;
}

void ModelChecker::CheckPlacement(const CoherenceEvent& ev) {
  const std::string error = ms_->AuditPlacement();
  if (!error.empty()) Fail(ev, "placement audit: " + error);
}

uint64_t ModelChecker::Finish() {
  if (attached_) {
    if (pending_recover_count_ > 0) {
      std::ostringstream os;
      os << pending_recover_count_
         << " acknowledged write(s) never re-materialized after the last "
            "pool recovery";
      Fail(CoherenceEvent{CoherenceEvent::Kind::kPoolRestart, 0, false, mode_,
                          0},
           os.str());
      pending_recover_.assign(pending_recover_.size(), 0);
      pending_recover_count_ = 0;
    }
    if (!pending_undo_.empty()) {
      std::ostringstream os;
      os << pending_undo_.size()
         << " aborted provisional write(s) never rolled back";
      Fail(CoherenceEvent{CoherenceEvent::Kind::kTxnAbort, 0, false, mode_, 0},
           os.str());
      pending_undo_.clear();
    }
    if (session_active_ || ms_->pushdown_active()) {
      Fail(CoherenceEvent{CoherenceEvent::Kind::kSessionEnd, 0, false, mode_,
                          0},
           "pushdown session still active at Finish()");
    }
    for (ddc::PageId p = 0; p < ms_->tracked_pages(); ++p) {
      if (ms_->temp_perm(p) != Perm::kNone) {
        std::ostringstream os;
        os << "undrained temporary mapping on page " << p;
        Fail(CoherenceEvent{CoherenceEvent::Kind::kSessionEnd, p, false,
                            mode_, 0},
             os.str());
      }
    }
    CheckPlacement(
        CoherenceEvent{CoherenceEvent::Kind::kSessionEnd, 0, false, mode_, 0});
    if (ms_->coherence_observer() == this) {
      ms_->set_coherence_observer(nullptr);
    }
    attached_ = false;
  }
  return violations_.size();
}

}  // namespace teleport::tp
