// Engine-independent oracle: the expected join result of a generated input,
// computed by the benchmark's own hash equi-join over the tuples (the
// punctuations play no part in what the answer is). A run is checked by
// result count, by a commutative hash of the result rows — so a dropped
// and a duplicated row are caught even when the count is right — and, for
// the Fig 1 query, by the per-group counts a count(*) group-by must emit.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "stream/element.h"

namespace perfbench {

/// A generated tuple: (join key, payload).
struct KeyedTuple {
  int64_t key = 0;
  int64_t payload = 0;
};

/// The tuples of a generated stream, in order; punctuations and the
/// end-of-stream marker are skipped.
std::vector<KeyedTuple> TuplesOf(const std::vector<pjoin::StreamElement>& s);

/// Hash of one result row (left key, left payload, right key, right
/// payload). Rows are summed, so the total is order independent.
uint64_t RowHash(int64_t lk, int64_t lp, int64_t rk, int64_t rp);

struct Expected {
  int64_t results = 0;
  uint64_t row_hash = 0;
  /// Join key -> number of result rows with that key (keys with none are
  /// absent, as a group-by never sees them).
  std::unordered_map<int64_t, int64_t> group_counts;
};

/// Hash equi-join of `left` and `right` on the key.
Expected ComputeExpected(const std::vector<KeyedTuple>& left,
                         const std::vector<KeyedTuple>& right);

/// What a run emitted.
struct ResultTally {
  int64_t results = 0;
  uint64_t row_hash = 0;

  void Add(int64_t lk, int64_t lp, int64_t rk, int64_t rp) {
    ++results;
    row_hash += RowHash(lk, lp, rk, rp);
  }
  /// A join output tuple: (left key, left payload, right key, right payload).
  void Add(const pjoin::Tuple& row);
};

/// Group rows a count(*) group-by emitted: key -> counts, in emission order.
struct GroupTally {
  std::unordered_map<int64_t, std::vector<int64_t>> counts;

  void Add(int64_t key, int64_t count) { counts[key].push_back(count); }
};

/// "" when the tally matches, else a one-line description of the mismatch.
std::string CheckResults(const Expected& expected, const ResultTally& got);
/// "" when every expected group was emitted exactly once with its count and
/// no other group was emitted.
std::string CheckGroups(const Expected& expected, const GroupTally& got);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
