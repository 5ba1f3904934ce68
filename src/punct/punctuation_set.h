// PunctuationSet: the punctuations of one input stream that have arrived but
// not yet been propagated (paper §3.1, Fig 2a).
//
// The set supports the two operations the join needs on its hot path:
//   - setMatch(t, PS): does any punctuation in the set match tuple t?
//   - first-match lookup for the propagation index (assigning pids).
// Constant patterns on the join attribute (by far the common case) are
// indexed in a hash map; other pattern kinds are scanned linearly.

#ifndef PJOIN_PUNCT_PUNCTUATION_SET_H_
#define PJOIN_PUNCT_PUNCTUATION_SET_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "punct/punctuation.h"

namespace pjoin {

/// Sentinel pid for "tuple not covered by any punctuation" (paper Fig 2b).
constexpr int64_t kNullPid = -1;

/// One punctuation plus the propagation-index bookkeeping of paper Fig 2a:
/// `match_count` counts tuples in the same state that carry this pid, and
/// `indexed` records whether index building has processed this punctuation.
struct PunctEntry {
  int64_t pid = kNullPid;
  Punctuation punct;
  TimeMicros arrival = 0;
  int64_t match_count = 0;
  bool indexed = false;
  /// True when every pattern other than the join attribute is the wildcard.
  /// Only such punctuations may purge the *opposite* state: they alone
  /// guarantee that no future tuple of this stream carries a covered key.
  bool key_only = false;
};

class PunctuationSet {
 public:
  /// `attr_index` is the join attribute the hash index keys on.
  /// `validate_prefix` enforces the paper's §2.2 assumption: for punctuations
  /// p_i before p_j, Ptn_i ∧ Ptn_j ∈ {∅, Ptn_i} (on the join attribute).
  explicit PunctuationSet(size_t attr_index, bool validate_prefix = false);

  /// Adds a punctuation; returns its pid (pids increase in arrival order).
  /// Fails with FailedPrecondition if prefix validation is on and violated.
  Result<int64_t> Add(Punctuation punct, TimeMicros arrival);

  /// setMatch(t, PS): true if some punctuation in the set matches `t`.
  [[nodiscard]] bool SetMatch(const Tuple& t) const;

  /// Cross-stream setMatch on the join attribute (paper §2.2: "we only focus
  /// on exploiting punctuations over the join attribute"): true if some
  /// *key-only* punctuation's join-attribute pattern covers `join_value`.
  /// This is the test used to purge the opposite state and to drop arriving
  /// opposite-stream tuples on the fly.
  [[nodiscard]] bool SetMatchKey(const Value& join_value) const;

  /// The earliest-arrived punctuation matching `t`, or nullptr. Used to
  /// assign pids when building the propagation index.
  PunctEntry* FindFirstMatch(const Tuple& t);

  /// Entry by pid, or nullptr if absent (e.g. already propagated).
  PunctEntry* Find(int64_t pid);
  const PunctEntry* Find(int64_t pid) const;

  /// Removes a punctuation (after propagation).
  void Remove(int64_t pid);

  /// Removes a punctuation but retains its key coverage: SetMatchKey keeps
  /// reporting its join-attribute pattern as covered. Used when a
  /// punctuation is propagated — the guarantee "no more tuples with these
  /// keys" holds forever, and the purge / on-the-fly-drop checks of the
  /// *opposite* stream (or, in the n-ary join, of all other streams) still
  /// rely on it.
  void RemoveRetainingCoverage(int64_t pid);

  /// Pids in arrival order.
  std::vector<int64_t> PidsInOrder() const;

  /// Drains the join-attribute patterns of the key-only punctuations added
  /// since the last call, in arrival order — the work of the next purge of
  /// the opposite state. Patterns outlive their punctuation, so one
  /// propagated before the purge ran is still applied.
  std::vector<Pattern> TakeUnappliedForPurge();

  /// Drains the queue of punctuations that index building has not yet
  /// processed, in arrival order. BuildIndex marks them indexed.
  std::vector<int64_t> TakeUnindexed();

  /// Visits entries in arrival order; `fn` may mutate the entry but must not
  /// add or remove entries.
  template <typename Fn>
  void ForEach(Fn fn) {
    for (auto& [pid, entry] : entries_) fn(entry);
  }

  [[nodiscard]] size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// Approximate in-memory footprint in bytes.
  size_t ByteSize() const;

 private:
  bool PrefixOk(const Punctuation& punct) const;

  size_t attr_index_;
  bool validate_prefix_;
  int64_t next_pid_ = 0;
  // Ordered by pid == arrival order.
  std::map<int64_t, PunctEntry> entries_;
  // Constant join-attribute patterns: value -> pids carrying it.
  std::unordered_map<Value, std::vector<int64_t>, ValueHash> constant_index_;
  // Pids whose join-attribute pattern is not a constant.
  std::vector<int64_t> nonconstant_pids_;
  // Key coverage retained from propagated key-only punctuations.
  std::unordered_set<Value, ValueHash> retained_constants_;
  std::vector<Pattern> retained_patterns_;
  // Work queues consumed by the purge and index-build components.
  std::vector<Pattern> unapplied_purge_keys_;
  std::vector<int64_t> unindexed_pids_;
};

}  // namespace pjoin

#endif  // PJOIN_PUNCT_PUNCTUATION_SET_H_
