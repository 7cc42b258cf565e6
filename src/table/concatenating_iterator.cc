#include "table/concatenating_iterator.h"

#include <cassert>

namespace lsmlab {

void ConcatenatingIterator::SeekToFirst() {
  SwitchTo(0);
  if (current_ != nullptr) {
    current_->SeekToFirst();
  }
  SkipExhaustedChildren();
}

void ConcatenatingIterator::Seek(const Slice& target) {
  SwitchTo(FindChild(target));
  if (current_ != nullptr) {
    current_->Seek(target);
  }
  SkipExhaustedChildren();
}

void ConcatenatingIterator::Next() {
  assert(Valid());
  current_->Next();
  SkipExhaustedChildren();
}

Status ConcatenatingIterator::status() const {
  if (!status_.ok() || current_ == nullptr) {
    return status_;
  }
  return current_->status();
}

void ConcatenatingIterator::SwitchTo(size_t index) {
  if (current_ != nullptr && status_.ok()) {
    status_ = current_->status();
  }
  index_ = index < num_children_ ? index : num_children_;
  current_ = index_ < num_children_ ? OpenChild(index_) : nullptr;
}

void ConcatenatingIterator::SkipExhaustedChildren() {
  while (current_ != nullptr && !current_->Valid()) {
    SwitchTo(index_ + 1);
    if (current_ != nullptr) {
      current_->SeekToFirst();
    }
  }
}

}  // namespace lsmlab
