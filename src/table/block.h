#ifndef LSMLAB_TABLE_BLOCK_H_
#define LSMLAB_TABLE_BLOCK_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

#include "table/iterator.h"
#include "util/comparator.h"
#include "util/slice.h"
#include "util/status.h"

namespace lsmlab {

/// An immutable, parsed block (data, index, or metaindex). Owns its bytes;
/// shared between the block cache and live iterators.
class Block {
 public:
  /// Takes ownership of `contents`.
  explicit Block(std::string contents);

  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;

  size_t size() const { return data_.size(); }

  /// Iterator over the block's entries; keeps the Block alive via the
  /// owner pointer held by the caller.
  std::unique_ptr<Iterator> NewIterator(const Comparator* comparator) const;

  /// Reassembly space for one prefix-compressed key during Find. Keys of up
  /// to kInlineBytes stay inside the object — on the caller's stack; a
  /// longer key spills to the heap once, and the buffer keeps that space.
  class KeyBuffer {
   public:
    static constexpr size_t kInlineBytes = 128;

    KeyBuffer() = default;
    KeyBuffer(const KeyBuffer&) = delete;
    KeyBuffer& operator=(const KeyBuffer&) = delete;

    Slice slice() const { return Slice(data_, size_); }
    size_t size() const { return size_; }
    /// Keeps the first `n` bytes (the shared prefix); requires n <= size().
    void Truncate(size_t n) { size_ = n; }
    void Append(const char* p, size_t n) {
      if (size_ + n > capacity_) {
        Grow(size_ + n);
      }
      std::memcpy(data_ + size_, p, n);
      size_ += n;
    }

   private:
    void Grow(size_t needed);

    char inline_[kInlineBytes];  // Bytes past size_ are never read.
    std::unique_ptr<char[]> heap_;
    char* data_ = inline_;
    size_t size_ = 0;
    size_t capacity_ = kInlineBytes;
  };

  /// Point search without an iterator: positions on the first entry whose
  /// key is >= `target`, exactly as NewIterator(comparator)->Seek(target)
  /// would, and reports the same status (Corruption for a malformed block
  /// or a bad entry). On OK, `*found` tells whether such an entry exists;
  /// if so `*key` points into `scratch` and `*value` into this block.
  Status Find(const Comparator* comparator, const Slice& target,
              KeyBuffer* scratch, bool* found, Slice* key,
              Slice* value) const;

 private:
  class Iter;

  uint32_t NumRestarts() const;

  std::string data_;
  uint32_t restart_offset_ = 0;  // Offset of the restart array.
  bool malformed_ = false;
};

}  // namespace lsmlab

#endif  // LSMLAB_TABLE_BLOCK_H_
