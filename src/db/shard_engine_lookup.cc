// Point lookups (DESIGN.md, "Point lookups"): the one walk of tutorial
// §2.1.2–2.1.3 that Get, MultiGet and the vlog-GC lookup all drive, one
// ProbeCursor per key, and the resolution of the entries it finds.

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "db/merge_operator.h"
#include "db/shard_engine.h"

namespace lsmlab {

namespace {

/// A run whose filter passed the key turned out not to hold it.
void CountRunMiss(Statistics* stats, const TableReader& reader) {
  if (reader.has_filter()) {
    stats->filter_false_positives.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

void ShardEngine::Advance(const ReadView& view, ProbeCursor* c) {
  const LookupKey& lkey = *c->lkey;
  // 1. Memtables: the active one, then the immutables newest first.
  while (c->memtables <= view.imms.size()) {
    MemTable* mem = c->memtables == 0 ? view.mem.get()
                                      : view.imms[c->memtables - 1].get();
    ++c->memtables;
    if (mem->Get(lkey, c->value, &c->type)) {
      c->state = ProbeCursor::State::kFound;
      return;
    }
  }

  // 2. Sorted runs, shallow to deep; within L0 and tiered levels newest run
  // first. Filters gate every run probe (§2.1.3). The view's Version pins
  // every file it holds, so readers are raw pointers.
  const Slice user_key = lkey.user_key();
  while (const FileMetaData* f = view.version->NextFileContaining(
             user_key, &c->level, &c->file)) {
    Status s = GetTableReader(*f, &c->reader);
    if (!s.ok()) {
      c->Fail(s);
      return;
    }
    if (c->reader->KeyDefinitelyAbsent(user_key)) {
      stats_->runs_skipped_by_filter.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    stats_->runs_probed.fetch_add(1, std::memory_order_relaxed);
    if (!c->reader->LocateDataBlock(lkey.internal_key(), &c->block, &s)) {
      if (!s.ok()) {
        c->Fail(s);
        return;
      }
      // The index placed the key past the run's last block.
      CountRunMiss(stats_, *c->reader);
      continue;
    }
    std::shared_ptr<const Block> cached =
        c->reader->LookupCachedBlock(c->block.offset());
    if (cached == nullptr) {
      c->state = ProbeCursor::State::kWaiting;
      return;
    }
    if (SearchRun(*cached, c)) {
      return;
    }
  }
  c->state = ProbeCursor::State::kAbsent;
}

bool ShardEngine::SearchRun(const Block& block, ProbeCursor* c) {
  bool found = false;
  Status s = c->reader->SearchBlock(block, c->lkey->internal_key(), &found,
                                    &c->type, c->value);
  if (!s.ok()) {
    c->Fail(s);
    return true;
  }
  if (found) {
    c->state = ProbeCursor::State::kFound;
    return true;
  }
  CountRunMiss(stats_, *c->reader);
  return false;
}

void ShardEngine::RunLookups(const ReadOptions& options, const ReadView& view,
                             ProbeCursor* cursors, size_t n) {
  // The rounds' storage, reused from round to round. A lookup whose blocks
  // are all cached never touches it, and so allocates nothing here.
  std::vector<ProbeCursor*> waiting;
  std::vector<ReadRequest> reads;
  std::vector<std::shared_ptr<const Block>> blocks;
  std::unique_ptr<char[]> buffer;
  size_t buffer_size = 0;

  for (size_t i = 0; i < n; ++i) {
    Advance(view, &cursors[i]);
    if (cursors[i].state == ProbeCursor::State::kWaiting) {
      waiting.push_back(&cursors[i]);
    }
  }
  while (!waiting.empty()) {
    // Cursors waiting on one block sort next to each other, so one read
    // serves them all; the order by file and offset is also deterministic.
    std::sort(waiting.begin(), waiting.end(),
              [](const ProbeCursor* a, const ProbeCursor* b) {
                return std::make_pair(a->reader->file_number(),
                                      a->block.offset()) <
                       std::make_pair(b->reader->file_number(),
                                      b->block.offset());
              });
    reads.clear();
    size_t bytes = 0;
    for (ProbeCursor* c : waiting) {
      if (reads.empty() || reads.back().file != c->reader->file() ||
          reads.back().offset != c->block.offset()) {
        ReadRequest req;
        req.file = c->reader->file();
        req.offset = c->block.offset();
        req.len = static_cast<size_t>(c->block.size()) + kBlockTrailerSize;
        bytes += req.len;
        reads.push_back(req);
      }
      c->read = reads.size() - 1;
    }
    if (bytes > buffer_size) {
      buffer.reset(new char[bytes]);
      buffer_size = bytes;
    }
    char* scratch = buffer.get();
    for (ReadRequest& req : reads) {
      req.scratch = scratch;
      scratch += req.len;
    }
    options_.env->MultiRead(reads.data(), reads.size());

    // Finish every block (verify, build, cache) before any cursor moves
    // on, so the next file a cursor locates sees this round's blocks.
    blocks.assign(reads.size(), nullptr);
    uint64_t read_bytes = 0;
    for (size_t i = 0; i < waiting.size(); ++i) {
      const ProbeCursor* c = waiting[i];
      ReadRequest& req = reads[c->read];
      if ((i > 0 && waiting[i - 1]->read == c->read) || !req.status.ok()) {
        continue;
      }
      read_bytes += req.result.size();
      req.status = c->reader->FinishBlockRead(
          c->reader->MakeFetchContext(options), c->block, req.result,
          &blocks[c->read]);
    }
    stats_->io_batches.fetch_add(1, std::memory_order_relaxed);
    stats_->io_batch_reads.fetch_add(reads.size(), std::memory_order_relaxed);
    stats_->io_batch_bytes.fetch_add(read_bytes, std::memory_order_relaxed);

    // Cursors that wait again stay in `waiting`, compacted in place.
    size_t still_waiting = 0;
    for (ProbeCursor* c : waiting) {
      const ReadRequest& req = reads[c->read];
      if (!req.status.ok()) {
        c->Fail(req.status);
        continue;
      }
      if (!SearchRun(*blocks[c->read], c)) {
        Advance(view, c);
      }
      if (c->state == ProbeCursor::State::kWaiting) {
        waiting[still_waiting++] = c;
      }
    }
    waiting.resize(still_waiting);
  }
}

Status ShardEngine::ResolveLookup(const ReadOptions& options,
                                  const ReadView& view,
                                  SequenceNumber snapshot, ProbeCursor* c) {
  if (c->state == ProbeCursor::State::kFailed) {
    return c->status;
  }
  if (c->state != ProbeCursor::State::kFound) {
    return Status::NotFound("key not found");
  }
  if (c->type == kTypeDeletion || c->type == kTypeSingleDeletion) {
    return Status::NotFound("key deleted");
  }
  stats_->point_lookup_found.fetch_add(1, std::memory_order_relaxed);
  const Slice key = c->lkey->user_key();
  if (c->type == kTypeMerge) {
    return ResolveMerge(options, view, key, snapshot, c->value);
  }
  return ResolveValue(key, c->type, c->value);
}

Status ShardEngine::Get(const ReadOptions& options, const Slice& key,
                        std::string* value) {
  stats_->point_lookups.fetch_add(1, std::memory_order_relaxed);

  // Steady-state Get takes no DB-wide mutex: one copy under this thread's
  // view stripe pins the whole read state (memtables + version), one atomic
  // load picks the snapshot. A published last_sequence implies the covered
  // write is already visible in the view (the write committed before
  // publication, and view stores are release-ordered), so this pair can
  // never miss a completed write.
  std::shared_ptr<const ReadView> view = AcquireReadView();
  SequenceNumber snapshot = options.snapshot_seqno != 0
                                ? options.snapshot_seqno
                                : versions_->last_sequence();
  ProbeCursor cursor;
  cursor.Start(key, snapshot, value);
  RunLookups(options, *view, &cursor, 1);
  return ResolveLookup(options, *view, snapshot, &cursor);
}

std::vector<Status> ShardEngine::MultiGet(const ReadOptions& options,
                                          const std::vector<Slice>& keys,
                                          std::vector<std::string>* values) {
  // Batch-level counters (multiget_batches / multiget_keys / point_lookups)
  // are recorded by the facade, which may split one client batch across
  // several engines; bumping them here too would double-count.
  const size_t n = keys.size();
  values->clear();
  values->resize(n);
  std::vector<Status> statuses(n);
  if (n == 0) {
    return statuses;
  }

  // One view and one snapshot serve the whole batch, so every key reads the
  // same state (same guarantees as Get, amortized over n keys).
  std::shared_ptr<const ReadView> view = AcquireReadView();
  SequenceNumber snapshot = options.snapshot_seqno != 0
                                ? options.snapshot_seqno
                                : versions_->last_sequence();
  auto cursors = std::make_unique<ProbeCursor[]>(n);
  for (size_t i = 0; i < n; ++i) {
    cursors[i].Start(keys[i], snapshot, &(*values)[i]);
  }
  RunLookups(options, *view, cursors.get(), n);
  for (size_t i = 0; i < n; ++i) {
    statuses[i] = ResolveLookup(options, *view, snapshot, &cursors[i]);
  }
  return statuses;
}

Status ShardEngine::GetRawPointer(const ReadOptions& options, const Slice& key,
                                  std::string* raw) {
  std::shared_ptr<const ReadView> view = AcquireReadView();
  ProbeCursor cursor;
  cursor.Start(key, versions_->last_sequence(), raw);
  RunLookups(options, *view, &cursor, 1);
  if (cursor.state == ProbeCursor::State::kFailed) {
    return cursor.status;
  }
  if (cursor.state != ProbeCursor::State::kFound) {
    return Status::NotFound("key not found");
  }
  return cursor.type == kTypeVlogPointer ? Status::OK()
                                         : Status::NotFound("not separated");
}

Status ShardEngine::ResolveValue(const Slice& user_key, ValueType type,
                                 std::string* value) {
  if (type != kTypeVlogPointer) {
    return Status::OK();  // The stored value is the value.
  }
  VlogPointer ptr;
  if (vlog_ == nullptr || !ptr.DecodeFrom(*value)) {
    return Status::Corruption("bad vlog pointer");
  }
  return vlog_->Read(ptr, user_key, value);
}

Status ShardEngine::ResolveMerge(const ReadOptions& options,
                                 const ReadView& view, const Slice& key,
                                 SequenceNumber snapshot, std::string* value) {
  // Walk every version of `key` visible at `snapshot`, newest first,
  // collecting merge operands until a base value, tombstone, or the end of
  // the key's history. Reuses the caller's view so the chain is resolved
  // against exactly the state the lookup probed.
  auto iter = NewInternalIterator(options, view);
  std::string seek_key;
  AppendInternalKey(&seek_key,
                    ParsedInternalKey(key, snapshot, kValueTypeForSeek));
  std::vector<std::string> operand_storage;  // Newest first.
  std::string base_storage;
  bool has_base = false;
  bool deleted = false;

  for (iter->Seek(seek_key); iter->Valid(); iter->Next()) {
    ParsedInternalKey parsed;
    if (!ParseInternalKey(iter->key(), &parsed)) {
      return Status::Corruption("malformed internal key during merge");
    }
    if (options_.comparator->Compare(parsed.user_key, key) != 0) {
      break;  // Past this key's history.
    }
    if (parsed.sequence > snapshot) {
      continue;
    }
    if (parsed.type == kTypeMerge) {
      operand_storage.push_back(iter->value().ToString());
      continue;
    }
    if (parsed.type == kTypeDeletion || parsed.type == kTypeSingleDeletion) {
      deleted = true;
    } else {
      Slice stored = iter->value();
      base_storage.assign(stored.data(), stored.size());
      Status s = ResolveValue(parsed.user_key, parsed.type, &base_storage);
      if (!s.ok()) {
        return s;
      }
      has_base = true;
    }
    break;  // Any non-merge entry terminates the operand chain.
  }
  if (!iter->status().ok()) {
    return iter->status();
  }
  if (operand_storage.empty() && deleted) {
    return Status::NotFound("key deleted");
  }

  Slice base_slice(base_storage);
  const Slice* base = has_base ? &base_slice : nullptr;

  std::vector<Slice> operands;  // Oldest first for the operator.
  operands.reserve(operand_storage.size());
  for (auto it = operand_storage.rbegin(); it != operand_storage.rend();
       ++it) {
    operands.emplace_back(*it);
  }
  if (!options_.merge_operator->Merge(key, base, operands, value)) {
    return Status::Corruption("merge operands failed to combine");
  }
  return Status::OK();
}

}  // namespace lsmlab
