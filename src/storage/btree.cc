#include "storage/btree.h"

#include <cassert>

namespace doradb {

std::string PrefixUpperBound(std::string_view prefix) {
  std::string hi(prefix);
  // Increment the last incrementable byte; trailing 0xFF bytes are dropped.
  while (!hi.empty()) {
    auto& b = reinterpret_cast<uint8_t&>(hi.back());
    if (b != 0xFF) {
      ++b;
      return hi;
    }
    hi.pop_back();
  }
  return hi;  // empty = +infinity (scan to end)
}

BTree::BTree(BufferPool* pool, IndexId index_id, bool unique)
    : pool_(pool), index_id_(index_id), unique_(unique) {
  PageGuard guard;
  PageId pid;
  const Status s = pool_->NewPage(&guard, &pid);
  assert(s.ok());
  (void)s;
  guard.LatchExclusive();
  InitLeaf(guard.data(), pid);
  guard.MarkDirty();
  root_ = pid;
  first_leaf_ = pid;
}

void BTree::InitLeaf(uint8_t* p, PageId pid) {
  std::memset(p, 0, kPageSize);
  NodeHeader* h = Node(p);
  h->base.page_id = pid;
  h->base.owner_id = index_id_;
  h->base.page_type = PageType::kBTreeLeaf;
  h->base.page_lsn = kInvalidLsn;
  h->count = 0;
  h->level = 0;
  h->next_leaf = kInvalidPageId;
  h->child0 = kInvalidPageId;
}

void BTree::InitInternal(uint8_t* p, PageId pid, uint16_t level) {
  std::memset(p, 0, kPageSize);
  NodeHeader* h = Node(p);
  h->base.page_id = pid;
  h->base.owner_id = index_id_;
  h->base.page_type = PageType::kBTreeInternal;
  h->base.page_lsn = kInvalidLsn;
  h->count = 0;
  h->level = level;
  h->next_leaf = kInvalidPageId;
  h->child0 = kInvalidPageId;
}

int BTree::Compare(std::string_view a, std::string_view b) {
  const size_t n = a.size() < b.size() ? a.size() : b.size();
  const int c = std::memcmp(a.data(), b.data(), n);
  if (c != 0) return c;
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

void BTree::SetLeafKey(LeafEntry* e, std::string_view key) {
  e->key_len = static_cast<uint8_t>(key.size());
  std::memcpy(e->key, key.data(), key.size());
}

void BTree::SetInternalKey(InternalEntry* e, std::string_view key) {
  e->key_len = static_cast<uint8_t>(key.size());
  std::memcpy(e->key, key.data(), key.size());
}

PageId BTree::ChildFor(const uint8_t* node, std::string_view key) {
  const NodeHeader* h = Node(node);
  const InternalEntry* ents = Internals(node);
  // Rightmost child whose separator is <= key; child0 if all separators > key.
  uint32_t lo = 0, hi = h->count;  // first index with sep > key
  while (lo < hi) {
    const uint32_t mid = (lo + hi) / 2;
    if (Compare(ents[mid].KeyView(), key) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo == 0 ? h->child0 : ents[lo - 1].child;
}

uint16_t BTree::LowerBound(const uint8_t* leaf, std::string_view key) {
  const NodeHeader* h = Node(leaf);
  const LeafEntry* ents = Leaves(leaf);
  uint32_t lo = 0, hi = h->count;
  while (lo < hi) {
    const uint32_t mid = (lo + hi) / 2;
    if (Compare(ents[mid].KeyView(), key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return static_cast<uint16_t>(lo);
}

Status BTree::DescendToLeaf(std::string_view key, bool exclusive_leaf,
                            PageGuard* out) const {
  PageGuard guard;
  DORADB_RETURN_NOT_OK(pool_->FetchPage(root_, &guard));
  if (Node(guard.data())->level == 0) {
    if (exclusive_leaf) {
      guard.LatchExclusive();
    } else {
      guard.LatchShared();
    }
    *out = std::move(guard);
    return Status::OK();
  }
  guard.LatchShared();
  for (;;) {
    const NodeHeader* h = Node(guard.data());
    const PageId child_pid = ChildFor(guard.data(), key);
    const bool child_is_leaf = (h->level == 1);
    PageGuard child;
    DORADB_RETURN_NOT_OK(pool_->FetchPage(child_pid, &child));
    if (child_is_leaf && exclusive_leaf) {
      child.LatchExclusive();
    } else {
      child.LatchShared();
    }
    guard.Release();  // crab: parent released after child latched
    if (child_is_leaf) {
      *out = std::move(child);
      return Status::OK();
    }
    guard = std::move(child);
  }
}

Status BTree::UniqueCheck(uint8_t* leaf, std::string_view key) {
  NodeHeader* h = Node(leaf);
  LeafEntry* ents = Leaves(leaf);
  uint16_t i = LowerBound(leaf, key);
  while (i < h->count && Compare(ents[i].KeyView(), key) == 0) {
    if (!ents[i].deleted()) return Status::Duplicate("unique key exists");
    // Committed-deleted entry: superseded by the new insert (§4.2.2).
    std::memmove(&ents[i], &ents[i + 1],
                 sizeof(LeafEntry) * (h->count - i - 1));
    h->count--;
    num_entries_.fetch_sub(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status BTree::TryLeafInsert(std::string_view key, const IndexEntry& entry) {
  PageGuard leaf;
  DORADB_RETURN_NOT_OK(DescendToLeaf(key, /*exclusive_leaf=*/true, &leaf));
  uint8_t* p = leaf.data();
  NodeHeader* h = Node(p);
  if (unique_) DORADB_RETURN_NOT_OK(UniqueCheck(p, key));
  if (h->count >= kLeafCapacity) {
    // Split-time GC: purge flagged entries before deciding to split.
    if (PurgeDeleted(p) == 0) return Status::Full("leaf full");
    leaf.MarkDirty();
    if (h->count >= kLeafCapacity) return Status::Full("leaf full");
  }
  LeafEntry* ents = Leaves(p);
  // Insert after any equal keys (stable duplicate order).
  uint16_t pos = LowerBound(p, key);
  while (pos < h->count && Compare(ents[pos].KeyView(), key) == 0) ++pos;
  std::memmove(&ents[pos + 1], &ents[pos],
               sizeof(LeafEntry) * (h->count - pos));
  LeafEntry& e = ents[pos];
  SetLeafKey(&e, key);
  e.flags = entry.deleted ? LeafEntry::kDeletedBit : 0;
  e.page = entry.rid.page_id;
  e.slot = entry.rid.slot;
  e.aux = entry.aux;
  h->count++;
  leaf.MarkDirty();
  num_entries_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

uint16_t BTree::PurgeDeleted(uint8_t* leaf) {
  NodeHeader* h = Node(leaf);
  LeafEntry* ents = Leaves(leaf);
  uint16_t out = 0;
  for (uint16_t i = 0; i < h->count; ++i) {
    if (!ents[i].deleted()) {
      if (out != i) ents[out] = ents[i];
      ++out;
    }
  }
  const uint16_t purged = h->count - out;
  h->count = out;
  if (purged != 0) {
    gc_purged_.fetch_add(purged, std::memory_order_relaxed);
    num_entries_.fetch_sub(purged, std::memory_order_relaxed);
  }
  return purged;
}

Status BTree::Insert(std::string_view key, const IndexEntry& entry) {
  if (key.empty() || key.size() > kMaxKeySize) {
    return Status::InvalidArgument("bad key length");
  }
  {
    ReadGuard tree(tree_latch_, TimeClass::kBufferContention);
    const Status s = TryLeafInsert(key, entry);
    if (!s.IsFull()) return s;
  }
  WriteGuard tree(tree_latch_, TimeClass::kBufferContention);
  return ExclusiveInsert(key, entry);
}

Status BTree::ExclusiveInsert(std::string_view key, const IndexEntry& entry) {
  std::string split_key;
  PageId split_page = kInvalidPageId;
  bool split = false;
  DORADB_RETURN_NOT_OK(
      InsertRecursive(root_, key, entry, &split_key, &split_page, &split));
  if (split) {
    PageGuard old_root;
    DORADB_RETURN_NOT_OK(pool_->FetchPage(root_, &old_root));
    const uint16_t old_level = Node(old_root.data())->level;
    old_root.Release();

    PageGuard new_root;
    PageId new_root_pid;
    DORADB_RETURN_NOT_OK(pool_->NewPage(&new_root, &new_root_pid));
    InitInternal(new_root.data(), new_root_pid,
                 static_cast<uint16_t>(old_level + 1));
    NodeHeader* h = Node(new_root.data());
    h->child0 = root_;
    InternalEntry* ents = Internals(new_root.data());
    SetInternalKey(&ents[0], split_key);
    ents[0].child = split_page;
    h->count = 1;
    new_root.LatchExclusive();
    new_root.MarkDirty();
    new_root.Unlatch();
    root_ = new_root_pid;
  }
  return Status::OK();
}

Status BTree::InsertRecursive(PageId node_pid, std::string_view key,
                              const IndexEntry& entry, std::string* split_key,
                              PageId* split_page, bool* split) {
  *split = false;
  PageGuard guard;
  DORADB_RETURN_NOT_OK(pool_->FetchPage(node_pid, &guard));
  uint8_t* p = guard.data();
  NodeHeader* h = Node(p);

  if (h->level == 0) {
    if (unique_) DORADB_RETURN_NOT_OK(UniqueCheck(p, key));
    if (h->count >= kLeafCapacity) PurgeDeleted(p);
    LeafEntry* ents = Leaves(p);
    if (h->count >= kLeafCapacity) {
      // Split. Prefer a key-boundary split point so one key's duplicate run
      // never spans two leaves (keeps rightmost descent exact).
      uint16_t mid = h->count / 2;
      uint16_t fwd = mid;
      while (fwd < h->count &&
             Compare(ents[fwd - 1].KeyView(), ents[fwd].KeyView()) == 0) {
        ++fwd;
      }
      if (fwd >= h->count) {
        uint16_t back = mid;
        while (back > 0 &&
               Compare(ents[back - 1].KeyView(), ents[back].KeyView()) == 0) {
          --back;
        }
        if (back == 0) {
          return Status::Full("single key overflows a leaf");
        }
        mid = back;
      } else {
        mid = fwd;
      }

      PageGuard right;
      PageId right_pid;
      DORADB_RETURN_NOT_OK(pool_->NewPage(&right, &right_pid));
      InitLeaf(right.data(), right_pid);
      NodeHeader* rh = Node(right.data());
      LeafEntry* rents = Leaves(right.data());
      std::memcpy(rents, &ents[mid], sizeof(LeafEntry) * (h->count - mid));
      rh->count = static_cast<uint16_t>(h->count - mid);
      rh->next_leaf = h->next_leaf;
      h->next_leaf = right_pid;
      h->count = mid;
      splits_.fetch_add(1, std::memory_order_relaxed);

      *split_key = std::string(rents[0].KeyView());
      *split_page = right_pid;
      *split = true;

      // Insert into the proper half.
      uint8_t* target = Compare(key, *split_key) < 0 ? p : right.data();
      NodeHeader* th = Node(target);
      LeafEntry* tents = Leaves(target);
      uint16_t pos = LowerBound(target, key);
      while (pos < th->count && Compare(tents[pos].KeyView(), key) == 0) {
        ++pos;
      }
      std::memmove(&tents[pos + 1], &tents[pos],
                   sizeof(LeafEntry) * (th->count - pos));
      LeafEntry& e = tents[pos];
      SetLeafKey(&e, key);
      e.flags = entry.deleted ? LeafEntry::kDeletedBit : 0;
      e.page = entry.rid.page_id;
      e.slot = entry.rid.slot;
      e.aux = entry.aux;
      th->count++;
      num_entries_.fetch_add(1, std::memory_order_relaxed);

      right.LatchExclusive();
      right.MarkDirty();
      right.Unlatch();
      guard.LatchExclusive();
      guard.MarkDirty();
      guard.Unlatch();
      return Status::OK();
    }
    // Fits without split.
    uint16_t pos = LowerBound(p, key);
    while (pos < h->count && Compare(ents[pos].KeyView(), key) == 0) ++pos;
    std::memmove(&ents[pos + 1], &ents[pos],
                 sizeof(LeafEntry) * (h->count - pos));
    LeafEntry& e = ents[pos];
    SetLeafKey(&e, key);
    e.flags = entry.deleted ? LeafEntry::kDeletedBit : 0;
    e.page = entry.rid.page_id;
    e.slot = entry.rid.slot;
    e.aux = entry.aux;
    h->count++;
    num_entries_.fetch_add(1, std::memory_order_relaxed);
    guard.LatchExclusive();
    guard.MarkDirty();
    guard.Unlatch();
    return Status::OK();
  }

  // Internal node.
  const PageId child = ChildFor(p, key);
  std::string child_split_key;
  PageId child_split_page = kInvalidPageId;
  bool child_split = false;
  DORADB_RETURN_NOT_OK(InsertRecursive(child, key, entry, &child_split_key,
                                       &child_split_page, &child_split));
  if (!child_split) return Status::OK();

  InternalEntry* ents = Internals(p);
  // Position for the new separator: first index with key > separator.
  uint32_t lo = 0, hi = h->count;
  while (lo < hi) {
    const uint32_t mid2 = (lo + hi) / 2;
    if (Compare(ents[mid2].KeyView(), child_split_key) <= 0) {
      lo = mid2 + 1;
    } else {
      hi = mid2;
    }
  }
  const uint16_t pos = static_cast<uint16_t>(lo);

  if (h->count < kInternalCapacity) {
    std::memmove(&ents[pos + 1], &ents[pos],
                 sizeof(InternalEntry) * (h->count - pos));
    SetInternalKey(&ents[pos], child_split_key);
    ents[pos].child = child_split_page;
    h->count++;
    guard.LatchExclusive();
    guard.MarkDirty();
    guard.Unlatch();
    return Status::OK();
  }

  // Split this internal node: promote the middle separator.
  PageGuard right;
  PageId right_pid;
  DORADB_RETURN_NOT_OK(pool_->NewPage(&right, &right_pid));
  InitInternal(right.data(), right_pid, h->level);
  NodeHeader* rh = Node(right.data());
  InternalEntry* rents = Internals(right.data());

  const uint16_t mid = h->count / 2;
  const std::string promoted(ents[mid].KeyView());
  rh->child0 = ents[mid].child;
  const uint16_t right_count = static_cast<uint16_t>(h->count - mid - 1);
  std::memcpy(rents, &ents[mid + 1], sizeof(InternalEntry) * right_count);
  rh->count = right_count;
  h->count = mid;
  splits_.fetch_add(1, std::memory_order_relaxed);

  // Insert the pending separator into the proper half.
  uint8_t* target = Compare(child_split_key, promoted) < 0 ? p : right.data();
  NodeHeader* th = Node(target);
  InternalEntry* tents = Internals(target);
  uint32_t l2 = 0, h2 = th->count;
  while (l2 < h2) {
    const uint32_t m2 = (l2 + h2) / 2;
    if (Compare(tents[m2].KeyView(), child_split_key) <= 0) {
      l2 = m2 + 1;
    } else {
      h2 = m2;
    }
  }
  std::memmove(&tents[l2 + 1], &tents[l2],
               sizeof(InternalEntry) * (th->count - l2));
  SetInternalKey(&tents[l2], child_split_key);
  tents[l2].child = child_split_page;
  th->count++;

  right.LatchExclusive();
  right.MarkDirty();
  right.Unlatch();
  guard.LatchExclusive();
  guard.MarkDirty();
  guard.Unlatch();

  *split_key = promoted;
  *split_page = right_pid;
  *split = true;
  return Status::OK();
}

Status BTree::Probe(std::string_view key, IndexEntry* out) const {
  ReadGuard tree(tree_latch_, TimeClass::kBufferContention);
  PageGuard leaf;
  DORADB_RETURN_NOT_OK(DescendToLeaf(key, /*exclusive_leaf=*/false, &leaf));
  const uint8_t* p = leaf.data();
  const NodeHeader* h = Node(p);
  const LeafEntry* ents = Leaves(p);
  for (uint16_t i = LowerBound(p, key);
       i < h->count && Compare(ents[i].KeyView(), key) == 0; ++i) {
    if (ents[i].deleted()) continue;
    out->rid = ents[i].rid();
    out->aux = ents[i].aux;
    out->deleted = false;
    return Status::OK();
  }
  return Status::NotFound("key not in index");
}

Status BTree::ProbeAll(std::string_view key, std::vector<IndexEntry>* out,
                       bool include_deleted) const {
  ReadGuard tree(tree_latch_, TimeClass::kBufferContention);
  PageGuard leaf;
  DORADB_RETURN_NOT_OK(DescendToLeaf(key, /*exclusive_leaf=*/false, &leaf));
  for (;;) {
    const uint8_t* p = leaf.data();
    const NodeHeader* h = Node(p);
    const LeafEntry* ents = Leaves(p);
    uint16_t i = LowerBound(p, key);
    for (; i < h->count && Compare(ents[i].KeyView(), key) == 0; ++i) {
      if (ents[i].deleted() && !include_deleted) continue;
      out->push_back(
          IndexEntry{ents[i].rid(), ents[i].aux, ents[i].deleted()});
    }
    if (i < h->count) break;  // stopped at a larger key — run is finished
    const PageId next = h->next_leaf;
    if (next == kInvalidPageId) break;
    PageGuard next_guard;
    DORADB_RETURN_NOT_OK(pool_->FetchPage(next, &next_guard));
    next_guard.LatchShared();
    leaf.Release();
    leaf = std::move(next_guard);
    // Stop if the next leaf starts beyond our key.
    const uint8_t* np = leaf.data();
    if (Node(np)->count > 0 &&
        Compare(Leaves(np)[0].KeyView(), key) > 0) {
      break;
    }
  }
  return Status::OK();
}

Status BTree::Remove(std::string_view key, const Rid& rid) {
  ReadGuard tree(tree_latch_, TimeClass::kBufferContention);
  PageGuard leaf;
  DORADB_RETURN_NOT_OK(DescendToLeaf(key, /*exclusive_leaf=*/true, &leaf));
  for (;;) {
    uint8_t* p = leaf.data();
    NodeHeader* h = Node(p);
    LeafEntry* ents = Leaves(p);
    uint16_t i = LowerBound(p, key);
    for (; i < h->count && Compare(ents[i].KeyView(), key) == 0; ++i) {
      if (rid.Valid() && ents[i].rid() != rid) continue;
      std::memmove(&ents[i], &ents[i + 1],
                   sizeof(LeafEntry) * (h->count - i - 1));
      h->count--;
      leaf.MarkDirty();
      num_entries_.fetch_sub(1, std::memory_order_relaxed);
      return Status::OK();
    }
    if (i < h->count) return Status::NotFound("entry not in index");
    const PageId next = h->next_leaf;
    if (next == kInvalidPageId) return Status::NotFound("entry not in index");
    PageGuard next_guard;
    DORADB_RETURN_NOT_OK(pool_->FetchPage(next, &next_guard));
    next_guard.LatchExclusive();
    leaf.Release();
    leaf = std::move(next_guard);
    const uint8_t* np = leaf.data();
    if (Node(np)->count > 0 && Compare(Leaves(np)[0].KeyView(), key) > 0) {
      return Status::NotFound("entry not in index");
    }
  }
}

Status BTree::SetDeleted(std::string_view key, const Rid& rid, bool deleted) {
  ReadGuard tree(tree_latch_, TimeClass::kBufferContention);
  PageGuard leaf;
  DORADB_RETURN_NOT_OK(DescendToLeaf(key, /*exclusive_leaf=*/true, &leaf));
  for (;;) {
    uint8_t* p = leaf.data();
    NodeHeader* h = Node(p);
    LeafEntry* ents = Leaves(p);
    uint16_t i = LowerBound(p, key);
    for (; i < h->count && Compare(ents[i].KeyView(), key) == 0; ++i) {
      if (rid.Valid() && ents[i].rid() != rid) continue;
      if (deleted) {
        ents[i].flags |= LeafEntry::kDeletedBit;
      } else {
        ents[i].flags &= static_cast<uint8_t>(~LeafEntry::kDeletedBit);
      }
      leaf.MarkDirty();
      return Status::OK();
    }
    if (i < h->count) return Status::NotFound("entry not in index");
    const PageId next = h->next_leaf;
    if (next == kInvalidPageId) return Status::NotFound("entry not in index");
    PageGuard next_guard;
    DORADB_RETURN_NOT_OK(pool_->FetchPage(next, &next_guard));
    next_guard.LatchExclusive();
    leaf.Release();
    leaf = std::move(next_guard);
    const uint8_t* np = leaf.data();
    if (Node(np)->count > 0 && Compare(Leaves(np)[0].KeyView(), key) > 0) {
      return Status::NotFound("entry not in index");
    }
  }
}

Status BTree::Scan(
    std::string_view lo, std::string_view hi,
    const std::function<bool(std::string_view, const IndexEntry&)>& cb) const {
  ReadGuard tree(tree_latch_, TimeClass::kBufferContention);
  PageGuard leaf;
  DORADB_RETURN_NOT_OK(DescendToLeaf(lo, /*exclusive_leaf=*/false, &leaf));
  uint16_t i = LowerBound(leaf.data(), lo);
  for (;;) {
    const uint8_t* p = leaf.data();
    const NodeHeader* h = Node(p);
    const LeafEntry* ents = Leaves(p);
    for (; i < h->count; ++i) {
      if (!hi.empty() && Compare(ents[i].KeyView(), hi) >= 0) {
        return Status::OK();
      }
      if (ents[i].deleted()) continue;
      if (!cb(ents[i].KeyView(),
              IndexEntry{ents[i].rid(), ents[i].aux, false})) {
        return Status::OK();
      }
    }
    const PageId next = h->next_leaf;
    if (next == kInvalidPageId) return Status::OK();
    PageGuard next_guard;
    DORADB_RETURN_NOT_OK(pool_->FetchPage(next, &next_guard));
    next_guard.LatchShared();
    leaf.Release();
    leaf = std::move(next_guard);
    i = 0;
  }
}

Status BTree::ScanPrefix(
    std::string_view prefix,
    const std::function<bool(std::string_view, const IndexEntry&)>& cb) const {
  return Scan(prefix, PrefixUpperBound(prefix), cb);
}

int BTree::Height() const {
  ReadGuard tree(tree_latch_, TimeClass::kBufferContention);
  int height = 1;
  PageId pid = root_;
  for (;;) {
    PageGuard guard;
    if (!pool_->FetchPage(pid, &guard).ok()) return -1;
    guard.LatchShared();
    const NodeHeader* h = Node(guard.data());
    if (h->level == 0) return height;
    pid = h->child0;
    ++height;
  }
}

Status BTree::CheckIntegrity() const {
  WriteGuard tree(tree_latch_, TimeClass::kBufferContention);
  // Iterative BFS over internal levels, then walk the leaf chain checking
  // global key ordering.
  std::vector<PageId> level_pages{root_};
  for (;;) {
    std::vector<PageId> next_level;
    bool is_leaf_level = false;
    for (PageId pid : level_pages) {
      PageGuard guard;
      DORADB_RETURN_NOT_OK(pool_->FetchPage(pid, &guard));
      const uint8_t* p = guard.data();
      const NodeHeader* h = Node(p);
      if (h->level == 0) {
        is_leaf_level = true;
        const LeafEntry* ents = Leaves(p);
        for (uint16_t i = 1; i < h->count; ++i) {
          if (Compare(ents[i - 1].KeyView(), ents[i].KeyView()) > 0) {
            return Status::Corruption("leaf keys out of order");
          }
        }
      } else {
        const InternalEntry* ents = Internals(p);
        if (h->count == 0) return Status::Corruption("empty internal node");
        for (uint16_t i = 1; i < h->count; ++i) {
          if (Compare(ents[i - 1].KeyView(), ents[i].KeyView()) >= 0) {
            return Status::Corruption("internal keys out of order");
          }
        }
        next_level.push_back(h->child0);
        for (uint16_t i = 0; i < h->count; ++i) {
          next_level.push_back(ents[i].child);
        }
      }
    }
    if (is_leaf_level) break;
    level_pages = std::move(next_level);
  }
  // Leaf chain must be globally ordered.
  PageId pid = first_leaf_;
  std::string prev;
  bool have_prev = false;
  uint64_t counted = 0;
  while (pid != kInvalidPageId) {
    PageGuard guard;
    DORADB_RETURN_NOT_OK(pool_->FetchPage(pid, &guard));
    const uint8_t* p = guard.data();
    const NodeHeader* h = Node(p);
    const LeafEntry* ents = Leaves(p);
    for (uint16_t i = 0; i < h->count; ++i) {
      if (have_prev && Compare(prev, ents[i].KeyView()) > 0) {
        return Status::Corruption("leaf chain out of order");
      }
      prev = std::string(ents[i].KeyView());
      have_prev = true;
      ++counted;
    }
    pid = h->next_leaf;
  }
  if (counted != num_entries_.load(std::memory_order_relaxed)) {
    return Status::Corruption("entry count mismatch");
  }
  return Status::OK();
}

}  // namespace doradb
