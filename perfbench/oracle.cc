#include "oracle.h"

namespace perfbench {

namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::vector<KeyedTuple> TuplesOf(const std::vector<pjoin::StreamElement>& s) {
  std::vector<KeyedTuple> out;
  out.reserve(s.size());
  for (const pjoin::StreamElement& e : s) {
    if (!e.is_tuple()) continue;
    out.push_back(KeyedTuple{e.tuple().field(0).AsInt64(),
                             e.tuple().field(1).AsInt64()});
  }
  return out;
}

uint64_t RowHash(int64_t lk, int64_t lp, int64_t rk, int64_t rp) {
  uint64_t h = Mix(static_cast<uint64_t>(lk));
  h = Mix(h ^ static_cast<uint64_t>(lp));
  h = Mix(h ^ static_cast<uint64_t>(rk));
  return Mix(h ^ static_cast<uint64_t>(rp));
}

Expected ComputeExpected(const std::vector<KeyedTuple>& left,
                         const std::vector<KeyedTuple>& right) {
  std::unordered_map<int64_t, std::vector<int64_t>> left_payloads;
  for (const KeyedTuple& t : left) left_payloads[t.key].push_back(t.payload);
  Expected out;
  for (const KeyedTuple& r : right) {
    auto it = left_payloads.find(r.key);
    if (it == left_payloads.end()) continue;
    for (int64_t lp : it->second) {
      out.row_hash += RowHash(r.key, lp, r.key, r.payload);
    }
    const auto n = static_cast<int64_t>(it->second.size());
    out.results += n;
    out.group_counts[r.key] += n;
  }
  return out;
}

void ResultTally::Add(const pjoin::Tuple& row) {
  Add(row.field(0).AsInt64(), row.field(1).AsInt64(), row.field(2).AsInt64(),
      row.field(3).AsInt64());
}

std::string CheckResults(const Expected& expected, const ResultTally& got) {
  if (got.results != expected.results) {
    return "result count " + std::to_string(got.results) + ", expected " +
           std::to_string(expected.results);
  }
  if (got.row_hash != expected.row_hash) {
    return "result rows differ from the oracle's (same count, different "
           "row hash)";
  }
  return "";
}

std::string CheckGroups(const Expected& expected, const GroupTally& got) {
  for (const auto& [key, counts] : got.counts) {
    auto it = expected.group_counts.find(key);
    if (it == expected.group_counts.end()) {
      return "group " + std::to_string(key) + " emitted but has no results";
    }
    if (counts.size() != 1) {
      return "group " + std::to_string(key) + " emitted " +
             std::to_string(counts.size()) + " times";
    }
    if (counts[0] != it->second) {
      return "group " + std::to_string(key) + " count " +
             std::to_string(counts[0]) + ", expected " +
             std::to_string(it->second);
    }
  }
  if (got.counts.size() != expected.group_counts.size()) {
    return std::to_string(got.counts.size()) + " groups emitted, expected " +
           std::to_string(expected.group_counts.size());
  }
  return "";
}

}  // namespace perfbench
