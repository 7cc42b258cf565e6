#ifndef LSMLAB_TABLE_MERGING_ITERATOR_H_
#define LSMLAB_TABLE_MERGING_ITERATOR_H_

#include <memory>
#include <vector>

#include "table/iterator.h"
#include "util/comparator.h"

namespace lsmlab {

/// K-way merge over child iterators, the machinery behind both range scans
/// (tutorial §2.1.2: one iterator per sorted run, merged) and compactions.
/// A scan gives it one child per sorted run — a leveled level arrives as
/// one ConcatenatingIterator over its files, never as one child per file.
/// Children yielding equal keys are surfaced in input order, so callers must
/// order children newest-run-first for LSM shadowing to work.
std::unique_ptr<Iterator> NewMergingIterator(
    const Comparator* comparator,
    std::vector<std::unique_ptr<Iterator>> children);

}  // namespace lsmlab

#endif  // LSMLAB_TABLE_MERGING_ITERATOR_H_
