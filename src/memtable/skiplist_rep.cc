#include <string>

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

  class IteratorImpl final : public Iterator {
   public:
    explicit IteratorImpl(SkipListRep* rep) : iter_(&rep->list_) {}

    bool Valid() const override { return iter_.Valid(); }
    const char* entry() const override { return iter_.key(); }
    void Next() override { iter_.Next(); }
    void SeekToFirst() override { iter_.SeekToFirst(); }
    void Seek(const Slice& internal_key) override {
      // The list orders whole entries, so the target becomes a probe entry
      // (varint32 length + internal key) in a buffer this iterator reuses:
      // one descent, and no allocation once the buffer has grown.
      probe_.clear();
      PutVarint32(&probe_, static_cast<uint32_t>(internal_key.size()));
      probe_.append(internal_key.data(), internal_key.size());
      iter_.Seek(probe_.data());
    }

   private:
    ListType::Iterator iter_;
    std::string probe_;
  };

  MemTableKeyComparator cmp_;
  ListType list_;
  size_t count_ = 0;
};

}  // namespace

std::unique_ptr<MemTableRep> NewSkipListRep(const MemTableKeyComparator& cmp,
                                            Arena* arena) {
  return std::make_unique<SkipListRep>(cmp, arena);
}

}  // namespace lsmlab
