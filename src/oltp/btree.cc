#include "oltp/btree.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"

namespace teleport::oltp {

namespace {

constexpr uint64_t kMetaRoot = 0;
constexpr uint64_t kMetaHeight = 8;
constexpr uint64_t kMetaBump = 16;
constexpr uint64_t kMetaFreeHead = 24;

}  // namespace

BTree::BTree(ddc::MemorySystem* ms, ddc::ExecutionContext& ctx,
             const BTreeOptions& opts)
    : ms_(ms), opts_(opts), page_(ms->space().page_size()) {
  TELEPORT_CHECK(page_ >= kEntries + 2 * kRecordStride)
      << "page too small for a B+-tree node";
  const int derived_leaf = static_cast<int>((page_ - kEntries) / kRecordStride);
  const int derived_inner = static_cast<int>((page_ - kEntries) / kInnerStride);
  leaf_cap_ = opts_.max_leaf_entries > 0
                  ? std::min(opts_.max_leaf_entries, derived_leaf)
                  : derived_leaf;
  inner_cap_ = opts_.max_inner_entries > 0
                   ? std::min(opts_.max_inner_entries, derived_inner)
                   : derived_inner;
  TELEPORT_CHECK(leaf_cap_ >= 4 && inner_cap_ >= 4)
      << "entry capacities too small to keep split/merge invariants";
  if (opts_.push_probes) {
    TELEPORT_CHECK(opts_.runtime != nullptr)
        << "push_probes requires a PushdownRuntime";
  }
  if (opts_.runtime != nullptr) {
    kernel_probe_leaf_ = opts_.runtime->RegisterKernel("ProbeLeaf");
    kernel_traverse_inner_ = opts_.runtime->RegisterKernel("TraverseInner");
    // Probes must degrade, not fail, when the fabric misbehaves (§3.2).
    opts_.probe_flags.fallback = tp::FallbackPolicy::kLocal;
  }
  meta_ = ms_->space().Alloc(page_, "btree.meta");
  arena_bytes_ = opts_.arena_pages * page_;
  // AllocNode scrubs each node before it is read.
  arena_ = ms_->space().AllocForOverwrite(arena_bytes_, "btree.arena");
  ctx.Store<uint64_t>(meta_ + kMetaBump, 0);
  ctx.Store<uint64_t>(meta_ + kMetaFreeHead, 0);
  const ddc::VAddr root = AllocNode(ctx, /*leaf=*/true);
  ctx.Store<uint64_t>(meta_ + kMetaRoot, root);
  ctx.Store<uint64_t>(meta_ + kMetaHeight, 1);
}

ddc::VAddr BTree::AllocNode(ddc::ExecutionContext& ctx, bool leaf) {
  ddc::VAddr node = ctx.Load<uint64_t>(meta_ + kMetaFreeHead);
  if (node != 0) {
    ctx.Store<uint64_t>(meta_ + kMetaFreeHead,
                        ctx.Load<uint64_t>(node + kHdrNext));
  } else {
    const uint64_t off = ctx.Load<uint64_t>(meta_ + kMetaBump);
    TELEPORT_CHECK(off + page_ <= arena_bytes_) << "btree arena exhausted";
    ctx.Store<uint64_t>(meta_ + kMetaBump, off + page_);
    node = arena_ + off;
  }
  // Fresh nodes are fully scrubbed so no stale key can ever re-match at a
  // recycled slot address.
  ctx.Fill<uint64_t>(node, 0, page_ / 8);
  ctx.Store<uint32_t>(node + kHdrIsLeaf, leaf ? 1 : 0);
  return node;
}

void BTree::FreeNode(ddc::ExecutionContext& ctx, ddc::VAddr node) {
  ctx.Fill<uint64_t>(node, 0, page_ / 8);  // scrub dead copies
  ctx.Store<uint64_t>(node + kHdrNext,
                      ctx.Load<uint64_t>(meta_ + kMetaFreeHead));
  ctx.Store<uint64_t>(meta_ + kMetaFreeHead, node);
}

void BTree::BeginWrite(ddc::ExecutionContext& ctx, ddc::VAddr node) {
  const uint64_t v = ctx.Load<uint64_t>(node + kHdrVersion);
  TELEPORT_DCHECK((v & 1) == 0) << "nested structural writer on one node";
  ctx.Store<uint64_t>(node + kHdrVersion, v + 1);
}

void BTree::EndWrite(ddc::ExecutionContext& ctx, ddc::VAddr node) {
  const uint64_t v = ctx.Load<uint64_t>(node + kHdrVersion);
  TELEPORT_DCHECK((v & 1) == 1);
  ctx.Store<uint64_t>(node + kHdrVersion, v + 1);
}

BTree::NodeView BTree::ReadNode(ddc::ExecutionContext& ctx,
                                ddc::VAddr node) const {
  NodeView out;
  for (;;) {
    const uint64_t v0 = ctx.Load<uint64_t>(node + kHdrVersion);
    if ((v0 & 1) != 0) {  // structural writer mid-flight: retry
      // Only another simulated thread can finish that write, and one runs
      // only while this context yields.
      TELEPORT_CHECK(ctx.yield_fn() != nullptr)
          << "B+-tree node " << node << " reads odd version " << v0
          << " on a context without a yield hook: no writer can finish";
      ctx.ChargeCpu(1);
      continue;
    }
    const uint32_t count = ctx.Load<uint32_t>(node + kHdrCount);
    const uint32_t leaf = ctx.Load<uint32_t>(node + kHdrIsLeaf);
    const uint64_t next = ctx.Load<uint64_t>(node + kHdrNext);
    out.is_leaf = leaf != 0;
    out.count = static_cast<int>(count);
    out.next = next;
    const size_t stride = leaf != 0 ? 4 : 2;
    const size_t words = static_cast<size_t>(count) * stride;
    // Room for one more entry, so InsertRec's insert into the snapshot
    // never reallocates and copies the node.
    out.words.reserve(words + stride);
    out.words.resize(words);
    if (words > 0) {
      ctx.LoadSpan<uint64_t>(node + kEntries, out.words.data(), words);
    }
    const uint64_t v1 = ctx.Load<uint64_t>(node + kHdrVersion);
    if (v1 == v0) return out;
    TELEPORT_CHECK(ctx.yield_fn() != nullptr)
        << "B+-tree node " << node << " version moved from " << v0 << " to "
        << v1 << " on a context without a yield hook";
    ctx.ChargeCpu(1);  // raced a structural writer: retry
  }
}

int BTree::LowerBound(const NodeView& v, uint64_t key) const {
  const int stride = v.stride_words();
  int lo = 0;
  int hi = v.count;
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    if (v.words[static_cast<size_t>(mid * stride)] < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

int BTree::ChildIndex(const NodeView& v, uint64_t key) const {
  // Last separator <= key; entry 0's separator acts as -infinity.
  int i = LowerBound(v, key);
  if (i < v.count && v.key(i) == key) return i;
  return i > 0 ? i - 1 : 0;
}

ddc::VAddr BTree::DescendToLeaf(ddc::ExecutionContext& ctx,
                                uint64_t key) const {
  ddc::VAddr node = ctx.Load<uint64_t>(meta_ + kMetaRoot);
  for (;;) {
    const NodeView v = ReadNode(ctx, node);
    if (v.is_leaf) return node;
    TELEPORT_CHECK(v.count > 0) << "empty inner node";
    node = v.words[static_cast<size_t>(ChildIndex(v, key) * 2 + 1)];
  }
}

ddc::VAddr BTree::FindRecord(ddc::ExecutionContext& ctx, uint64_t key) {
  ddc::VAddr node = DescendToLeaf(ctx, key);
  for (;;) {
    const NodeView v = ReadNode(ctx, node);
    // B-link hop: a concurrent split may have moved the key to the right
    // sibling between the descend and this snapshot.
    if (v.count > 0 && key > v.key(v.count - 1) && v.next != 0) {
      node = v.next;
      continue;
    }
    const int idx = LowerBound(v, key);
    if (idx < v.count && v.key(idx) == key) {
      return node + kEntries + static_cast<uint64_t>(idx) * kRecordStride;
    }
    return 0;
  }
}

ddc::VAddr BTree::ProbeRecord(ddc::ExecutionContext& ctx, uint64_t key) {
  if (!opts_.push_probes) return FindRecord(ctx, key);
  ddc::VAddr addr = 0;
  tp::PushdownFlags flags = opts_.probe_flags;
  flags.kernel = kernel_probe_leaf_;
  const Status st = opts_.runtime->Call(
      ctx,
      [&](ddc::ExecutionContext& mem_ctx) -> Status {
        addr = FindRecord(mem_ctx, key);
        return Status::OK();
      },
      flags);
  if (!st.ok()) return FindRecord(ctx, key);  // degrade to the local path
  return addr;
}

ddc::VAddr BTree::FindLeaf(ddc::ExecutionContext& ctx, uint64_t key) {
  if (!opts_.push_probes) return DescendToLeaf(ctx, key);
  ddc::VAddr leaf = 0;
  tp::PushdownFlags flags = opts_.probe_flags;
  flags.kernel = kernel_traverse_inner_;
  const Status st = opts_.runtime->Call(
      ctx,
      [&](ddc::ExecutionContext& mem_ctx) -> Status {
        leaf = DescendToLeaf(mem_ctx, key);
        return Status::OK();
      },
      flags);
  if (!st.ok()) return DescendToLeaf(ctx, key);
  return leaf;
}

BTree::SplitResult BTree::InsertRec(ddc::ExecutionContext& ctx,
                                    ddc::VAddr node, uint64_t depth,
                                    uint64_t key, ddc::VAddr* slot) {
  NodeView v = ReadNode(ctx, node);
  if (!v.is_leaf) {
    const int ci = ChildIndex(v, key);
    const ddc::VAddr child = v.words[static_cast<size_t>(ci * 2 + 1)];
    const SplitResult sr = InsertRec(ctx, child, depth + 1, key, slot);
    if (sr.right == 0) return {};
    // The child insert cannot have changed this node (structural writers
    // are serialized, and a child split writes only the child and its new
    // sibling), but the re-read stays: its loads are charged, so dropping it
    // would move virtual time.
    v = ReadNode(ctx, node);
    // Insert (sep, right) after the child that split.
    std::vector<uint64_t> words = std::move(v.words);
    const size_t at = static_cast<size_t>(ci + 1) * 2;
    words.insert(words.begin() + static_cast<ptrdiff_t>(at),
                 {sr.sep, sr.right});
    const int newcount = v.count + 1;
    if (newcount <= inner_cap_) {
      BeginWrite(ctx, node);
      ctx.StoreSpan<uint64_t>(node + kEntries + at * 8, words.data() + at,
                              words.size() - at);
      ctx.Store<uint32_t>(node + kHdrCount, static_cast<uint32_t>(newcount));
      EndWrite(ctx, node);
      return {};
    }
    // Split the inner node.
    const int mid = newcount / 2;
    const ddc::VAddr right = AllocNode(ctx, /*leaf=*/false);
    BeginWrite(ctx, right);
    ctx.StoreSpan<uint64_t>(right + kEntries,
                            words.data() + static_cast<size_t>(mid) * 2,
                            static_cast<size_t>(newcount - mid) * 2);
    ctx.Store<uint32_t>(right + kHdrCount,
                        static_cast<uint32_t>(newcount - mid));
    EndWrite(ctx, right);
    BeginWrite(ctx, node);
    ctx.StoreSpan<uint64_t>(node + kEntries, words.data(),
                            static_cast<size_t>(mid) * 2);
    ctx.Store<uint32_t>(node + kHdrCount, static_cast<uint32_t>(mid));
    // Scrub the vacated region: stale separators must not survive.
    ctx.Fill<uint64_t>(node + kEntries + static_cast<uint64_t>(mid) * 16, 0,
                       static_cast<uint64_t>(v.count - mid) * 2);
    EndWrite(ctx, node);
    ++splits_;
    ++ctx.metrics().btree_splits;
    return {words[static_cast<size_t>(mid) * 2], right};
  }
  // Leaf.
  int idx = LowerBound(v, key);
  if (idx < v.count && v.key(idx) == key) {
    *slot = node + kEntries + static_cast<uint64_t>(idx) * kRecordStride;
    return {};
  }
  std::vector<uint64_t> words = std::move(v.words);
  words.insert(words.begin() + static_cast<ptrdiff_t>(idx) * 4,
               {key, 0, RecordMeta::Pack(0, false), 0});
  const int newcount = v.count + 1;
  if (newcount <= leaf_cap_) {
    BeginWrite(ctx, node);
    ctx.StoreSpan<uint64_t>(node + kEntries + static_cast<uint64_t>(idx) * 32,
                            words.data() + static_cast<size_t>(idx) * 4,
                            words.size() - static_cast<size_t>(idx) * 4);
    ctx.Store<uint32_t>(node + kHdrCount, static_cast<uint32_t>(newcount));
    EndWrite(ctx, node);
    *slot = node + kEntries + static_cast<uint64_t>(idx) * kRecordStride;
    return {};
  }
  // Split the leaf.
  const int mid = newcount / 2;
  const ddc::VAddr right = AllocNode(ctx, /*leaf=*/true);
  BeginWrite(ctx, right);
  ctx.StoreSpan<uint64_t>(right + kEntries,
                          words.data() + static_cast<size_t>(mid) * 4,
                          static_cast<size_t>(newcount - mid) * 4);
  ctx.Store<uint32_t>(right + kHdrCount, static_cast<uint32_t>(newcount - mid));
  ctx.Store<uint64_t>(right + kHdrNext, v.next);
  EndWrite(ctx, right);
  BeginWrite(ctx, node);
  ctx.StoreSpan<uint64_t>(node + kEntries, words.data(),
                          static_cast<size_t>(mid) * 4);
  ctx.Store<uint32_t>(node + kHdrCount, static_cast<uint32_t>(mid));
  ctx.Store<uint64_t>(node + kHdrNext, right);
  // Scrub moved-out entries so stale record addresses cannot re-match.
  ctx.Fill<uint64_t>(node + kEntries + static_cast<uint64_t>(mid) * 32, 0,
                     static_cast<uint64_t>(v.count - mid) * 4);
  EndWrite(ctx, node);
  ++splits_;
  ++ctx.metrics().btree_splits;
  *slot = idx < mid
              ? node + kEntries + static_cast<uint64_t>(idx) * kRecordStride
              : right + kEntries +
                    static_cast<uint64_t>(idx - mid) * kRecordStride;
  return {words[static_cast<size_t>(mid) * 4], right};
}

ddc::VAddr BTree::InsertSlot(ddc::ExecutionContext& ctx, uint64_t key) {
  ddc::VAddr slot = 0;
  const ddc::VAddr root = ctx.Load<uint64_t>(meta_ + kMetaRoot);
  const SplitResult sr = InsertRec(ctx, root, 0, key, &slot);
  if (sr.right != 0) {
    const ddc::VAddr nr = AllocNode(ctx, /*leaf=*/false);
    BeginWrite(ctx, nr);
    const uint64_t entries[4] = {0, root, sr.sep, sr.right};
    ctx.StoreSpan<uint64_t>(nr + kEntries, entries, 4);
    ctx.Store<uint32_t>(nr + kHdrCount, 2);
    EndWrite(ctx, nr);
    ctx.Store<uint64_t>(meta_ + kMetaRoot, nr);
    ctx.Store<uint64_t>(meta_ + kMetaHeight,
                        ctx.Load<uint64_t>(meta_ + kMetaHeight) + 1);
  }
  TELEPORT_CHECK(slot != 0);
  return slot;
}

bool BTree::Insert(ddc::ExecutionContext& ctx, uint64_t key, uint64_t value,
                   uint64_t meta) {
  const ddc::VAddr slot = InsertSlot(ctx, key);
  const bool existed = RecordMeta::Present(ctx.Load<uint64_t>(slot + 16));
  ctx.Store<uint64_t>(slot + 8, value);
  ctx.Store<uint64_t>(slot + 16, meta);
  return !existed;
}

bool BTree::DeleteRec(ddc::ExecutionContext& ctx, ddc::VAddr node,
                      uint64_t depth, uint64_t key, bool* found) {
  const NodeView v = ReadNode(ctx, node);
  if (v.is_leaf) {
    const int idx = LowerBound(v, key);
    if (idx >= v.count || v.key(idx) != key) return false;
    *found = true;
    std::vector<uint64_t> words = v.words;
    words.erase(words.begin() + static_cast<ptrdiff_t>(idx) * 4,
                words.begin() + static_cast<ptrdiff_t>(idx + 1) * 4);
    BeginWrite(ctx, node);
    if (!words.empty() && static_cast<size_t>(idx) * 4 < words.size()) {
      ctx.StoreSpan<uint64_t>(
          node + kEntries + static_cast<uint64_t>(idx) * 32,
          words.data() + static_cast<size_t>(idx) * 4,
          words.size() - static_cast<size_t>(idx) * 4);
    }
    ctx.Store<uint32_t>(node + kHdrCount, static_cast<uint32_t>(v.count - 1));
    ctx.Fill<uint64_t>(
        node + kEntries + static_cast<uint64_t>(v.count - 1) * 32, 0,
        4);  // scrub the vacated tail slot
    EndWrite(ctx, node);
    return v.count - 1 < leaf_cap_ / 2;
  }
  const int ci = ChildIndex(v, key);
  const ddc::VAddr child = v.words[static_cast<size_t>(ci * 2 + 1)];
  if (!DeleteRec(ctx, child, depth + 1, key, found)) return false;
  RebalanceChild(ctx, node, ci);
  const NodeView after = ReadNode(ctx, node);
  return after.count < inner_cap_ / 2;
}

void BTree::RebalanceChild(ddc::ExecutionContext& ctx, ddc::VAddr parent,
                           int idx) {
  const NodeView pv = ReadNode(ctx, parent);
  if (pv.count < 2) return;  // lone child (root path): nothing to borrow from
  // Merge into the left sibling when one exists; otherwise pull the right
  // sibling in. Borrow instead when the sibling has entries to spare.
  const int li = idx > 0 ? idx - 1 : idx;      // left node of the pair
  const int ri = li + 1;                       // right node of the pair
  const ddc::VAddr left = pv.words[static_cast<size_t>(li * 2 + 1)];
  const ddc::VAddr right = pv.words[static_cast<size_t>(ri * 2 + 1)];
  const NodeView lv = ReadNode(ctx, left);
  const NodeView rv = ReadNode(ctx, right);
  const int cap = lv.is_leaf ? leaf_cap_ : inner_cap_;
  const int stride = lv.is_leaf ? 4 : 2;
  const uint64_t stride_bytes = lv.is_leaf ? kRecordStride : kInnerStride;
  const int min_fill = cap / 2;
  auto write_node = [&](ddc::VAddr node, const std::vector<uint64_t>& words,
                        int old_count) {
    const int count = static_cast<int>(words.size()) / stride;
    BeginWrite(ctx, node);
    if (!words.empty()) {
      ctx.StoreSpan<uint64_t>(node + kEntries, words.data(), words.size());
    }
    ctx.Store<uint32_t>(node + kHdrCount, static_cast<uint32_t>(count));
    if (old_count > count) {
      ctx.Fill<uint64_t>(node + kEntries + static_cast<uint64_t>(count) *
                                               stride_bytes,
                         0, static_cast<uint64_t>(old_count - count) * stride);
    }
    EndWrite(ctx, node);
  };
  auto set_separator = [&](int entry, uint64_t sep) {
    BeginWrite(ctx, parent);
    ctx.Store<uint64_t>(parent + kEntries + static_cast<uint64_t>(entry) * 16,
                        sep);
    EndWrite(ctx, parent);
  };
  if (lv.count + rv.count <= cap) {
    // Merge right into left.
    std::vector<uint64_t> words = lv.words;
    words.insert(words.end(), rv.words.begin(), rv.words.end());
    if (lv.is_leaf) {
      BeginWrite(ctx, left);
      ctx.Store<uint64_t>(left + kHdrNext, rv.next);
      EndWrite(ctx, left);
    }
    write_node(left, words, lv.count);
    FreeNode(ctx, right);
    // Drop the right node's separator entry from the parent.
    std::vector<uint64_t> pw = pv.words;
    pw.erase(pw.begin() + static_cast<ptrdiff_t>(ri) * 2,
             pw.begin() + static_cast<ptrdiff_t>(ri + 1) * 2);
    BeginWrite(ctx, parent);
    if (static_cast<size_t>(ri) * 2 < pw.size()) {
      ctx.StoreSpan<uint64_t>(parent + kEntries + static_cast<uint64_t>(ri) * 16,
                              pw.data() + static_cast<size_t>(ri) * 2,
                              pw.size() - static_cast<size_t>(ri) * 2);
    }
    ctx.Store<uint32_t>(parent + kHdrCount,
                        static_cast<uint32_t>(pv.count - 1));
    ctx.Fill<uint64_t>(
        parent + kEntries + static_cast<uint64_t>(pv.count - 1) * 16, 0, 2);
    EndWrite(ctx, parent);
    ++merges_;
    ++ctx.metrics().btree_merges;
    return;
  }
  // Borrow: move one entry across the boundary toward the underfull side.
  if (lv.count < min_fill && rv.count > min_fill) {
    std::vector<uint64_t> lw = lv.words;
    std::vector<uint64_t> rw = rv.words;
    lw.insert(lw.end(), rw.begin(), rw.begin() + stride);
    rw.erase(rw.begin(), rw.begin() + stride);
    write_node(left, lw, lv.count);
    write_node(right, rw, rv.count);
    set_separator(ri, rw[0]);
  } else if (rv.count < min_fill && lv.count > min_fill) {
    std::vector<uint64_t> lw = lv.words;
    std::vector<uint64_t> rw = rv.words;
    rw.insert(rw.begin(), lw.end() - stride, lw.end());
    lw.erase(lw.end() - stride, lw.end());
    write_node(left, lw, lv.count);
    write_node(right, rw, rv.count);
    set_separator(ri, rw[0]);
  }
}

bool BTree::Delete(ddc::ExecutionContext& ctx, uint64_t key) {
  bool found = false;
  const ddc::VAddr root = ctx.Load<uint64_t>(meta_ + kMetaRoot);
  DeleteRec(ctx, root, 0, key, &found);
  // Collapse a one-child inner root.
  const NodeView rv = ReadNode(ctx, root);
  if (!rv.is_leaf && rv.count == 1) {
    ctx.Store<uint64_t>(meta_ + kMetaRoot, rv.words[1]);
    ctx.Store<uint64_t>(meta_ + kMetaHeight,
                        ctx.Load<uint64_t>(meta_ + kMetaHeight) - 1);
    FreeNode(ctx, root);
  }
  return found;
}

uint64_t BTree::height(ddc::ExecutionContext& ctx) const {
  return ctx.Load<uint64_t>(meta_ + kMetaHeight);
}

BTree::Audit BTree::AuditStructure(ddc::ExecutionContext& ctx) const {
  Audit out;
  struct Frame {
    ddc::VAddr node;
    uint64_t depth;
    uint64_t lo;      ///< inclusive lower bound (separator)
    bool has_lo;
    uint64_t hi;      ///< exclusive upper bound
    bool has_hi;
  };
  const ddc::VAddr root = ctx.Load<uint64_t>(meta_ + kMetaRoot);
  const uint64_t height_now = ctx.Load<uint64_t>(meta_ + kMetaHeight);
  std::vector<Frame> stack{{root, 1, 0, false, 0, false}};
  std::vector<ddc::VAddr> leaves_in_order;
  bool have_prev_key = false;
  uint64_t prev_key = 0;
  auto fail = [&](const std::string& msg) {
    if (out.ok) {
      out.ok = false;
      out.error = msg;
    }
  };
  // Depth-first, left to right, so leaves append in key order.
  while (!stack.empty() && out.ok) {
    const Frame f = stack.back();
    stack.pop_back();
    const NodeView v = ReadNode(ctx, f.node);
    const int cap = v.is_leaf ? leaf_cap_ : inner_cap_;
    if (f.node != root && v.count < cap / 2) {
      std::ostringstream os;
      os << "underfull node at depth " << f.depth << ": " << v.count << " < "
         << cap / 2;
      fail(os.str());
      break;
    }
    if (v.is_leaf) {
      if (f.depth != height_now) {
        fail("leaf off the uniform depth (unbalanced tree)");
        break;
      }
      out.depth = f.depth;
      leaves_in_order.push_back(f.node);
      for (int i = 0; i < v.count; ++i) {
        const uint64_t k = v.key(i);
        if (have_prev_key && k <= prev_key) {
          fail("keys not strictly increasing in order");
          break;
        }
        if ((f.has_lo && k < f.lo) || (f.has_hi && k >= f.hi)) {
          fail("leaf key outside its separator range");
          break;
        }
        prev_key = k;
        have_prev_key = true;
        ++out.records;
        out.digest = Mix64(out.digest ^ k);
        out.digest =
            Mix64(out.digest ^ v.words[static_cast<size_t>(i * 4 + 1)]);
        out.digest =
            Mix64(out.digest ^ v.words[static_cast<size_t>(i * 4 + 2)]);
      }
      continue;
    }
    if (v.count < (f.node == root ? 2 : 2)) {
      fail("inner node with fewer than two children");
      break;
    }
    // Push children right-to-left so the leftmost pops first.
    for (int i = v.count - 1; i >= 0; --i) {
      Frame c;
      c.node = v.words[static_cast<size_t>(i * 2 + 1)];
      c.depth = f.depth + 1;
      if (i == 0) {
        c.lo = f.lo;
        c.has_lo = f.has_lo;
      } else {
        c.lo = v.key(i);
        c.has_lo = true;
      }
      if (i + 1 < v.count) {
        c.hi = v.key(i + 1);
        c.has_hi = true;
      } else {
        c.hi = f.hi;
        c.has_hi = f.has_hi;
      }
      stack.push_back(c);
    }
  }
  if (out.ok) {
    // Leaf chain must enumerate exactly the in-order leaves.
    ddc::VAddr chain = leaves_in_order.empty() ? 0 : leaves_in_order.front();
    for (size_t i = 0; i < leaves_in_order.size(); ++i) {
      if (chain != leaves_in_order[i]) {
        fail("leaf chain disagrees with in-order traversal");
        break;
      }
      chain = ReadNode(ctx, chain).next;
    }
    if (out.ok && chain != 0) fail("leaf chain runs past the last leaf");
  }
  return out;
}

uint64_t BTree::ContentDigest(ddc::ExecutionContext& ctx) const {
  uint64_t digest = 0;
  ddc::VAddr node = ctx.Load<uint64_t>(meta_ + kMetaRoot);
  // Leftmost leaf.
  for (;;) {
    const NodeView v = ReadNode(ctx, node);
    if (v.is_leaf) break;
    TELEPORT_CHECK(v.count > 0);
    node = v.words[1];
  }
  while (node != 0) {
    const NodeView v = ReadNode(ctx, node);
    for (int i = 0; i < v.count; ++i) {
      const uint64_t meta = v.words[static_cast<size_t>(i * 4 + 2)];
      if (!RecordMeta::Present(meta)) continue;
      digest = Mix64(digest ^ v.key(i));
      digest = Mix64(digest ^ v.words[static_cast<size_t>(i * 4 + 1)]);
      digest = Mix64(digest ^ RecordMeta::Version(meta));
    }
    node = v.next;
  }
  return digest;
}

}  // namespace teleport::oltp
