#ifndef TELEPORT_OLTP_BTREE_H_
#define TELEPORT_OLTP_BTREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ddc/memory_system.h"
#include "teleport/pushdown.h"

namespace teleport::oltp {

/// Record metadata word, packed into one uint64 so a reader can snapshot a
/// record's visibility state with a single charged load:
///   bit 0      always zero (the OLTP layer locks through the record's
///                        *seq* word instead — see below)
///   bit 1      present — 0 is an absent marker (pre-insert slot / never
///                        committed insert)
///   bits 2..63 version — committed-version counter for OCC validation;
///                        preloaded records start at 0, each committed
///                        install bumps by exactly one
///
/// The fourth record word, *seq*, is a per-record seqlock: odd means a
/// committing/aborting transaction is mid-flight on this record, and it is
/// bumped on every acquire AND every release — never restored. That
/// monotonicity is load-bearing: an abort restores value and meta to their
/// exact pre-install words, so a reader snapshotting meta→value→meta could
/// otherwise capture a provisional value between two identical meta reads
/// (ABA). The seq word cannot ABA.
struct RecordMeta {
  static constexpr uint64_t kPresentBit = 2;
  static uint64_t Pack(uint64_t version, bool present) {
    return (version << 2) | (present ? kPresentBit : 0);
  }
  static uint64_t Version(uint64_t meta) { return meta >> 2; }
  static bool Present(uint64_t meta) { return (meta & kPresentBit) != 0; }
};

/// Tuning and offload knobs of one tree instance.
struct BTreeOptions {
  /// Node arena size in pages. Every node occupies one full page.
  uint64_t arena_pages = 1024;
  /// Logical entry capacities; 0 derives from the page size. Small caps
  /// force deep trees and frequent split/merge on tiny key sets (property
  /// tests); nodes still occupy whole pages either way, so structural ops
  /// always cross page boundaries.
  int max_leaf_entries = 0;
  int max_inner_entries = 0;
  /// Offload index probes (ProbeLeaf / TraverseInner) through `runtime`
  /// instead of descending with compute-side loads. Record reads and all
  /// structural writes stay compute-side either way.
  bool push_probes = false;
  tp::PushdownRuntime* runtime = nullptr;
  /// Flags template for pushed probes; the kernel id is filled in by the
  /// tree (RegisterKernel) and `fallback` defaults to kLocal so a faulted
  /// probe degrades to the local descend instead of failing the txn.
  tp::PushdownFlags probe_flags;
};

/// A B+-tree laid out in DDC address space: fixed-size nodes sized to
/// pages, one record per leaf slot, leaves chained for range scans.
///
/// Concurrency contract (PR8):
///  - *Structural* modifications (insert-slot, split, delete, merge/borrow)
///    are single-writer — the OLTP layer serializes them under its global
///    commit latch; the property test drives them from one context.
///  - *Reads* are latch-free: every node carries a seqlock version word
///    (even = stable) bumped around each structural modification, and
///    readers retry a node snapshot until the version holds still. Record
///    payloads are guarded separately by each record's per-record seq word
///    (see RecordMeta), so a probe never blocks on a committing
///    transaction — only the record read does, and only for that record.
///  - Vacated entry regions (split move-out, delete compaction) are
///    scrubbed to zero so a stale slot address can never re-match its old
///    key: stale readers re-probe instead of reading dead copies.
///
/// Virtual-time costs ride the ordinary ExecutionContext accesses: node
/// snapshots are span loads (extent fast path, per-element under
/// TELEPORT_SCALAR_DATAPATH), probes optionally pushdown.
class BTree {
 public:
  /// Bytes per leaf record: {key, value, meta, seq}.
  static constexpr uint64_t kRecordStride = 32;

  /// Allocates the node arena + meta page from `ms->space()` and creates an
  /// empty root leaf. `ctx` is charged for the initialization stores.
  BTree(ddc::MemorySystem* ms, ddc::ExecutionContext& ctx,
        const BTreeOptions& opts);

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  // --- Structural writers (single-writer; see class comment) --------------

  /// Finds the leaf slot for `key`, creating an absent-marker record
  /// (value 0, meta absent/v0) if the key is not present — splitting leaves
  /// and inners on the way as needed. Returns the record's address.
  ddc::VAddr InsertSlot(ddc::ExecutionContext& ctx, uint64_t key);

  /// Convenience for preload/property tests: find-or-create the slot and
  /// store `value`/`meta` into it. Returns false if the key already had a
  /// present record (value/meta still overwritten).
  bool Insert(ddc::ExecutionContext& ctx, uint64_t key, uint64_t value,
              uint64_t meta);

  /// Removes `key`'s record entirely (structural delete with borrow/merge
  /// rebalancing). Returns false if the key was not in the tree. Used by
  /// the property test; the OLTP layer retires records with absent markers
  /// instead.
  bool Delete(ddc::ExecutionContext& ctx, uint64_t key);

  // --- Latch-free readers --------------------------------------------------

  /// Compute-side descend to `key`'s record address, 0 if absent.
  ddc::VAddr FindRecord(ddc::ExecutionContext& ctx, uint64_t key);

  /// Probe for `key`'s record address: the ProbeLeaf pushdown kernel when
  /// `push_probes` is set (full pool-side descend + leaf search), the local
  /// descend otherwise.
  ddc::VAddr ProbeRecord(ddc::ExecutionContext& ctx, uint64_t key);

  /// Leaf that covers `key` (scan start): the TraverseInner pushdown kernel
  /// when `push_probes` is set, a local descend otherwise.
  ddc::VAddr FindLeaf(ddc::ExecutionContext& ctx, uint64_t key);

  /// Stable snapshot of one node (seqlock retry loop). Exposed for the
  /// scan path and tests.
  struct NodeView {
    bool is_leaf = false;
    uint64_t next = 0;  ///< next leaf (0 at the tail); 0 for inners
    /// Leaf: (key, value, meta, seq) quads. Inner: (separator, child) pairs.
    std::vector<uint64_t> words;
    int count = 0;
    int stride_words() const { return is_leaf ? 4 : 2; }
    uint64_t key(int i) const {
      return words[static_cast<size_t>(i * stride_words())];
    }
  };
  NodeView ReadNode(ddc::ExecutionContext& ctx, ddc::VAddr node) const;

  // --- Introspection -------------------------------------------------------

  uint64_t height(ddc::ExecutionContext& ctx) const;
  int leaf_capacity() const { return leaf_cap_; }
  int inner_capacity() const { return inner_cap_; }
  uint64_t splits() const { return splits_; }
  uint64_t merges() const { return merges_; }

  /// Full structural audit for the property test: in-order key sortedness,
  /// uniform leaf depth, fill-factor bounds (every non-root node holds at
  /// least ceil(cap/2) - 1 entries), leaf-chain consistency, and a digest
  /// folded over the in-order (key, value, meta) stream — by construction
  /// identical for any two trees with the same logical content, regardless
  /// of shape.
  struct Audit {
    bool ok = true;
    std::string error;
    uint64_t records = 0;  ///< leaf entries (absent markers included)
    uint64_t depth = 0;
    uint64_t digest = 0;
  };
  Audit AuditStructure(ddc::ExecutionContext& ctx) const;

  /// In-order digest over *visible* records only: fold of (key, value,
  /// version) for every present record. The OLTP differential harness
  /// compares this across schedules — it is a function of logical content,
  /// not tree shape.
  uint64_t ContentDigest(ddc::ExecutionContext& ctx) const;

 private:
  // Node header layout (all nodes occupy one page):
  //   +0  u64 seqlock version   +8 u32 count   +12 u32 is_leaf
  //   +16 u64 next (leaf chain / free list)    +24 u64 reserved
  //   +32 entries (leaf stride 32, inner stride 16)
  static constexpr uint64_t kHdrVersion = 0;
  static constexpr uint64_t kHdrCount = 8;
  static constexpr uint64_t kHdrIsLeaf = 12;
  static constexpr uint64_t kHdrNext = 16;
  static constexpr uint64_t kEntries = 32;
  static constexpr uint64_t kInnerStride = 16;

  ddc::VAddr AllocNode(ddc::ExecutionContext& ctx, bool leaf);
  void FreeNode(ddc::ExecutionContext& ctx, ddc::VAddr node);
  /// Seqlock writer guards.
  void BeginWrite(ddc::ExecutionContext& ctx, ddc::VAddr node);
  void EndWrite(ddc::ExecutionContext& ctx, ddc::VAddr node);

  /// Recursive insert workhorse: returns the new right sibling's (first
  /// separator, node) when `node` split, else {0, 0}.
  struct SplitResult {
    uint64_t sep = 0;
    ddc::VAddr right = 0;
  };
  SplitResult InsertRec(ddc::ExecutionContext& ctx, ddc::VAddr node,
                        uint64_t depth, uint64_t key, ddc::VAddr* slot);
  /// Recursive delete: returns true if `node` is now underfull.
  bool DeleteRec(ddc::ExecutionContext& ctx, ddc::VAddr node, uint64_t depth,
                 uint64_t key, bool* found);
  void RebalanceChild(ddc::ExecutionContext& ctx, ddc::VAddr parent, int idx);

  ddc::VAddr DescendToLeaf(ddc::ExecutionContext& ctx, uint64_t key) const;
  int LowerBound(const NodeView& v, uint64_t key) const;
  /// Inner child index covering `key` (last separator <= key; entry 0 acts
  /// as -inf).
  int ChildIndex(const NodeView& v, uint64_t key) const;

  ddc::MemorySystem* ms_;
  BTreeOptions opts_;
  uint64_t page_ = 0;  ///< page size (node size)
  int leaf_cap_ = 0;
  int inner_cap_ = 0;
  ddc::VAddr meta_ = 0;   ///< meta page: root, height, bump cursor, free list
  ddc::VAddr arena_ = 0;  ///< node arena base
  uint64_t arena_bytes_ = 0;
  int kernel_probe_leaf_ = -1;
  int kernel_traverse_inner_ = -1;
  uint64_t splits_ = 0;
  uint64_t merges_ = 0;
};

}  // namespace teleport::oltp

#endif  // TELEPORT_OLTP_BTREE_H_
