#include "memtable/memtable_rep.h"
#include "memtable/skiplist.h"
#include "util/coding.h"

namespace lsmlab {

namespace {

/// The default rep: balanced write/read performance and safe concurrent
/// iteration, matching RocksDB's default memtable.
class SkipListRep final : public MemTableRep {
 public:
  SkipListRep(const MemTableKeyComparator& cmp, Arena* arena)
      : cmp_(cmp), list_(EntryComparator(cmp), arena) {}

  void Insert(const char* entry) override {
    list_.Insert(entry);
    ++count_;
  }

  const char* PointSeek(const LookupKey& key) override {
    ListType::Iterator iter(&list_);
    iter.Seek(key.memtable_key().data());
    return iter.Valid() ? iter.key() : nullptr;
  }

  size_t Count() const override { return count_; }

  bool SupportsConcurrentIteration() const override { return true; }

  std::unique_ptr<Iterator> NewIterator() override {
    return std::make_unique<IteratorImpl>(this);
  }

 private:
  struct EntryComparator {
    explicit EntryComparator(const MemTableKeyComparator& c) : cmp(c) {}
    int operator()(const char* a, const char* b) const { return cmp(a, b); }
    MemTableKeyComparator cmp;
  };
  using ListType = SkipList<const char*, EntryComparator>;

  // Finds first entry >= internal_key by descending the skip list with an
  // entry-to-key comparator.
  const char* SeekInternal(const Slice& internal_key) const;

  class IteratorImpl final : public Iterator {
   public:
    explicit IteratorImpl(SkipListRep* rep)
        : rep_(rep), iter_(&rep->list_) {}

    bool Valid() const override { return iter_.Valid(); }
    const char* entry() const override { return iter_.key(); }
    void Next() override { iter_.Next(); }
    void SeekToFirst() override { iter_.SeekToFirst(); }
    void Seek(const Slice& internal_key) override {
      // Linear-free seek: use the rep's key-aware descent, then position the
      // skip list iterator at the found node via Seek on the entry.
      const char* entry = rep_->SeekInternal(internal_key);
      if (entry == nullptr) {
        // Position past the end.
        iter_.SeekToLast();
        if (iter_.Valid()) {
          iter_.Next();
        }
      } else {
        iter_.Seek(entry);
      }
    }

   private:
    SkipListRep* const rep_;
    ListType::Iterator iter_;
  };

  MemTableKeyComparator cmp_;
  ListType list_;
  size_t count_ = 0;
};

const char* SkipListRep::SeekInternal(const Slice& internal_key) const {
  // The skip list orders whole entries; walk from the front using the
  // entry-to-key comparator. A full key-aware descent would avoid the scan;
  // we reuse the list's own Seek by crafting a probe entry instead.
  //
  // Probe entry format: varint32(len) + internal_key.
  std::string probe;
  PutVarint32(&probe, static_cast<uint32_t>(internal_key.size()));
  probe.append(internal_key.data(), internal_key.size());
  ListType::Iterator iter(&list_);
  iter.Seek(probe.data());
  return iter.Valid() ? iter.key() : nullptr;
}

}  // namespace

std::unique_ptr<MemTableRep> NewSkipListRep(const MemTableKeyComparator& cmp,
                                            Arena* arena) {
  return std::make_unique<SkipListRep>(cmp, arena);
}

}  // namespace lsmlab
