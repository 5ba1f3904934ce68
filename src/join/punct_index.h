// The punctuation index of paper §3.5 (Fig 2, Fig 3): incremental assignment
// of pids to state tuples, per-punctuation match counts, and the propagation
// step that releases punctuations whose count reached zero.

#ifndef PJOIN_JOIN_PUNCT_INDEX_H_
#define PJOIN_JOIN_PUNCT_INDEX_H_

#include <vector>

#include "common/metrics.h"
#include "join/hash_state.h"
#include "punct/punctuation_set.h"

namespace pjoin {

class PunctuationIndexer {
 public:
  /// The paper's Index-Build (Fig 3, lines 1-14) extended to also cover the
  /// purge buffers: every state entry with pid == kNullPid is evaluated
  /// against the not-yet-indexed punctuations of `ps`, in arrival order, and
  /// gets the pid of the first match; that punctuation's count is
  /// incremented. All scanned punctuations are then marked indexed. When
  /// every such punctuation has a constant join-key pattern, only those
  /// keys' chains and their partitions' purge buffers are visited instead
  /// of the whole state; the pids assigned are the same.
  /// Returns the number of pid assignments. Counters updated:
  /// index_scans, index_scanned_tuples, index_assignments.
  static int64_t BuildIndex(PunctuationSet* ps, HashState* state,
                            CounterSet* counters);

  /// Indexes a single entry (used by the disk join for fetched disk-resident
  /// entries that were flushed before they could be indexed). Matches
  /// against the whole set, earliest arrival first.
  static void IndexEntry(PunctuationSet* ps, TupleEntry* entry);

  /// Bookkeeping when an entry is discarded for good (purged from memory
  /// with no disk partner, dropped from a purge buffer after its disk joins
  /// completed, or purged from disk): decrements its punctuation's count.
  static void OnEntryDiscarded(PunctuationSet* ps, const TupleEntry& entry);
};

class Propagator {
 public:
  /// The paper's Propagate (Fig 3, lines 16-21) with a safety gate for
  /// overlapping punctuations: a punctuation is released only when it is
  /// indexed, its count is zero, and no earlier still-held punctuation
  /// overlaps it (a tuple matching both punctuations carries the pid of the
  /// earlier one — paper Fig 2(b) — so the earlier count guards both).
  /// Released punctuations are removed from the set and returned in arrival
  /// order.
  static std::vector<Punctuation> Propagate(PunctuationSet* ps);
};

}  // namespace pjoin

#endif  // PJOIN_JOIN_PUNCT_INDEX_H_
