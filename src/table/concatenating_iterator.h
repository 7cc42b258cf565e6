#ifndef LSMLAB_TABLE_CONCATENATING_ITERATOR_H_
#define LSMLAB_TABLE_CONCATENATING_ITERATOR_H_

#include <cassert>
#include <cstddef>

#include "table/iterator.h"

namespace lsmlab {

/// Forward iteration over children whose key ranges are disjoint and in key
/// order — every key of child i sorts before every key of child i + 1 — so
/// their concatenation is one sorted run. Only one child is positioned at a
/// time: Seek asks the subclass which child may hold the target and
/// positions just that one, and Next moves into the following child when
/// the current one is exhausted. A scan reads a leveled level (its files)
/// and a sharded DB (its shards) this way, instead of merging children that
/// can never interleave.
///
/// A child's error is kept once the iteration moves past it (the child
/// itself may be gone by then) and reported by status() from then on.
class ConcatenatingIterator : public Iterator {
 public:
  explicit ConcatenatingIterator(size_t num_children)
      : num_children_(num_children), index_(num_children) {}

  bool Valid() const final {
    return current_ != nullptr && current_->Valid();
  }
  void SeekToFirst() final;
  void Seek(const Slice& target) final;
  void Next() final;
  Slice key() const final {
    assert(Valid());
    return current_->key();
  }
  Slice value() const final {
    assert(Valid());
    return current_->value();
  }
  Status status() const final;

 protected:
  /// The first child that may hold a key >= target; num_children when none
  /// can.
  virtual size_t FindChild(const Slice& target) const = 0;

  /// An iterator over child `index` (< num_children), in any position. It
  /// stays usable until the next OpenChild call.
  virtual Iterator* OpenChild(size_t index) = 0;

 private:
  /// Makes child `index` current (none when index == num_children), first
  /// keeping the error of the child being left.
  void SwitchTo(size_t index);

  /// Moves over exhausted children until one is positioned on an entry or
  /// all are exhausted.
  void SkipExhaustedChildren();

  const size_t num_children_;
  size_t index_;                // Child behind current_; num_children_ if none.
  Iterator* current_ = nullptr;
  Status status_;               // First error of a child already left.
};

}  // namespace lsmlab

#endif  // LSMLAB_TABLE_CONCATENATING_ITERATOR_H_
