#include "table/block.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

#include "util/coding.h"

namespace lsmlab {

Block::Block(std::string contents) : data_(std::move(contents)) {
  if (data_.size() < sizeof(uint32_t)) {
    malformed_ = true;
    return;
  }
  uint32_t num_restarts = NumRestarts();
  uint64_t restart_bytes =
      (static_cast<uint64_t>(num_restarts) + 1) * sizeof(uint32_t);
  if (restart_bytes > data_.size()) {
    malformed_ = true;
    return;
  }
  restart_offset_ =
      static_cast<uint32_t>(data_.size() - restart_bytes);
}

uint32_t Block::NumRestarts() const {
  return DecodeFixed32(data_.data() + data_.size() - sizeof(uint32_t));
}

namespace {

/// Decodes the three varint32 lengths of an entry header. Returns nullptr on
/// corruption.
const char* DecodeEntry(const char* p, const char* limit, uint32_t* shared,
                        uint32_t* non_shared, uint32_t* value_length) {
  if (limit - p < 3) {
    return nullptr;
  }
  *shared = static_cast<uint8_t>(p[0]);
  *non_shared = static_cast<uint8_t>(p[1]);
  *value_length = static_cast<uint8_t>(p[2]);
  if ((*shared | *non_shared | *value_length) < 128) {
    // Fast path: all three lengths are single-byte varints.
    p += 3;
  } else {
    if ((p = GetVarint32Ptr(p, limit, shared)) == nullptr) return nullptr;
    if ((p = GetVarint32Ptr(p, limit, non_shared)) == nullptr) return nullptr;
    if ((p = GetVarint32Ptr(p, limit, value_length)) == nullptr) return nullptr;
  }
  // Widen before adding: non_shared + value_length can wrap uint32 on
  // corrupt input (e.g. 0xffffffff + 1 == 0), which would pass a 32-bit
  // bounds check and over-read the block by ~4 GiB.
  if (static_cast<uint64_t>(limit - p) <
      static_cast<uint64_t>(*non_shared) + *value_length) {
    return nullptr;
  }
  return p;
}

uint32_t RestartPoint(const char* data, uint32_t restarts, uint32_t index) {
  return DecodeFixed32(data + restarts + index * sizeof(uint32_t));
}

/// The fence-pointer search within a block: binary-searches the restart
/// array for the last restart point whose key is < target (0 if none).
/// Returns false when a restart entry is undecodable or not a full key.
bool FindRestartRegion(const Comparator* comparator, const char* data,
                       uint32_t restarts, uint32_t num_restarts,
                       const Slice& target, uint32_t* region) {
  uint32_t left = 0;
  uint32_t right = num_restarts - 1;
  while (left < right) {
    uint32_t mid = (left + right + 1) / 2;
    uint32_t region_offset = RestartPoint(data, restarts, mid);
    uint32_t shared, non_shared, value_length;
    const char* key_ptr =
        DecodeEntry(data + region_offset, data + restarts, &shared,
                    &non_shared, &value_length);
    if (key_ptr == nullptr || (shared != 0)) {
      return false;
    }
    Slice mid_key(key_ptr, non_shared);
    if (comparator->Compare(mid_key, target) < 0) {
      left = mid;
    } else {
      right = mid - 1;
    }
  }
  *region = left;
  return true;
}

}  // namespace

void Block::KeyBuffer::Grow(size_t needed) {
  size_t capacity = std::max(needed, 2 * capacity_);
  std::unique_ptr<char[]> bigger(new char[capacity]);
  std::memcpy(bigger.get(), data_, size_);
  heap_ = std::move(bigger);
  data_ = heap_.get();
  capacity_ = capacity;
}

Status Block::Find(const Comparator* comparator, const Slice& target,
                   KeyBuffer* scratch, bool* found, Slice* key,
                   Slice* value) const {
  *found = false;
  if (malformed_) {
    return Status::Corruption("malformed block");
  }
  const uint32_t num_restarts = NumRestarts();
  if (num_restarts == 0) {
    return Status::OK();
  }
  const char* data = data_.data();
  uint32_t region = 0;
  if (!FindRestartRegion(comparator, data, restart_offset_, num_restarts,
                         target, &region)) {
    return Status::Corruption("bad entry in block");
  }
  // Scan forward from the region's restart point, reassembling each
  // prefix-compressed key in `scratch`, until a key >= target.
  uint32_t offset = RestartPoint(data, restart_offset_, region);
  if (offset >= restart_offset_) {
    return Status::OK();  // The iterator runs off the end here too.
  }
  const char* p = data + offset;
  const char* limit = data + restart_offset_;
  scratch->Truncate(0);
  while (p < limit) {
    uint32_t shared, non_shared, value_length;
    p = DecodeEntry(p, limit, &shared, &non_shared, &value_length);
    if (p == nullptr || scratch->size() < shared) {
      return Status::Corruption("bad entry in block");
    }
    scratch->Truncate(shared);
    scratch->Append(p, non_shared);
    if (comparator->Compare(scratch->slice(), target) >= 0) {
      *found = true;
      *key = scratch->slice();
      *value = Slice(p + non_shared, value_length);
      return Status::OK();
    }
    p += non_shared + value_length;
  }
  return Status::OK();
}

class Block::Iter final : public Iterator {
 public:
  Iter(const Comparator* comparator, const char* data, uint32_t restart_offset,
       uint32_t num_restarts)
      : comparator_(comparator),
        data_(data),
        restarts_(restart_offset),
        num_restarts_(num_restarts),
        current_(restart_offset),
        restart_index_(num_restarts) {}

  bool Valid() const override { return current_ < restarts_; }
  Status status() const override { return status_; }
  Slice key() const override {
    assert(Valid());
    return Slice(key_);
  }
  Slice value() const override {
    assert(Valid());
    return value_;
  }

  void Next() override {
    assert(Valid());
    ParseNextEntry();
  }

  void SeekToFirst() override {
    SeekToRestartPoint(0);
    ParseNextEntry();
  }

  void Seek(const Slice& target) override {
    uint32_t left = 0;
    if (!FindRestartRegion(comparator_, data_, restarts_, num_restarts_,
                           target, &left)) {
      CorruptionError();
      return;
    }

    SeekToRestartPoint(left);
    while (true) {
      if (!ParseNextEntry()) {
        return;  // Ran off the end: leave invalid (no entry >= target).
      }
      if (comparator_->Compare(Slice(key_), target) >= 0) {
        return;
      }
    }
  }

 private:
  uint32_t GetRestartPoint(uint32_t index) const {
    assert(index < num_restarts_);
    return RestartPoint(data_, restarts_, index);
  }

  void SeekToRestartPoint(uint32_t index) {
    key_.clear();
    restart_index_ = index;
    // ParseNextEntry starts at value_ end; emulate by pointing value_ at the
    // restart offset with zero length.
    uint32_t offset = GetRestartPoint(index);
    value_ = Slice(data_ + offset, 0);
  }

  uint32_t NextEntryOffset() const {
    return static_cast<uint32_t>((value_.data() + value_.size()) - data_);
  }

  void CorruptionError() {
    current_ = restarts_;
    restart_index_ = num_restarts_;
    status_ = Status::Corruption("bad entry in block");
    key_.clear();
    value_.clear();
  }

  bool ParseNextEntry() {
    current_ = NextEntryOffset();
    const char* p = data_ + current_;
    const char* limit = data_ + restarts_;
    if (p >= limit) {
      // No more entries; mark invalid.
      current_ = restarts_;
      restart_index_ = num_restarts_;
      return false;
    }

    uint32_t shared, non_shared, value_length;
    p = DecodeEntry(p, limit, &shared, &non_shared, &value_length);
    if (p == nullptr || key_.size() < shared) {
      CorruptionError();
      return false;
    }
    key_.resize(shared);
    key_.append(p, non_shared);
    value_ = Slice(p + non_shared, value_length);
    while (restart_index_ + 1 < num_restarts_ &&
           GetRestartPoint(restart_index_ + 1) < current_) {
      ++restart_index_;
    }
    return true;
  }

  const Comparator* const comparator_;
  const char* const data_;
  const uint32_t restarts_;
  const uint32_t num_restarts_;

  uint32_t current_;  // Offset of the current entry; >= restarts_ if invalid.
  uint32_t restart_index_;
  std::string key_;
  Slice value_;
  Status status_;
};

std::unique_ptr<Iterator> Block::NewIterator(
    const Comparator* comparator) const {
  if (malformed_) {
    return NewEmptyIterator(Status::Corruption("malformed block"));
  }
  uint32_t num_restarts = NumRestarts();
  if (num_restarts == 0) {
    return NewEmptyIterator();
  }
  return std::make_unique<Iter>(comparator, data_.data(), restart_offset_,
                                num_restarts);
}

}  // namespace lsmlab
