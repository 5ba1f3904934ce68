#include "join/punct_index.h"

#include <algorithm>

#include "common/macros.h"

namespace pjoin {

int64_t PunctuationIndexer::BuildIndex(PunctuationSet* ps, HashState* state,
                                       CounterSet* counters) {
  // Select the punctuations not yet used for indexing (Fig 3, lines 3-6);
  // the set keeps them queued so this does not rescan all punctuations.
  std::vector<PunctEntry*> index_set;
  for (int64_t pid : ps->TakeUnindexed()) {
    PunctEntry* entry = ps->Find(pid);
    if (entry != nullptr && !entry->indexed) index_set.push_back(entry);
  }
  if (counters != nullptr) counters->Add("index_scans");
  if (index_set.empty()) return 0;

  int64_t assignments = 0;
  int64_t scanned = 0;
  auto assign = [&](TupleEntry& t, PunctEntry* p) {
    t.pid = p->pid;
    ++p->match_count;
    ++assignments;
  };

  // A punctuation with a constant join key can only match entries of that
  // key. When the whole batch is of that kind, visit the punctuations in
  // arrival order and walk each key's chain (plus its partition's purge
  // buffer): an entry still unassigned when a punctuation reaches it
  // matched none of the earlier ones, so it gets the same first-match pid
  // as the scan below gives it.
  const size_t key_index = state->key_index();
  const bool keyed =
      std::all_of(index_set.begin(), index_set.end(), [&](PunctEntry* p) {
        return p->punct.pattern(key_index).IsConstant();
      });
  if (keyed) {
    for (PunctEntry* p : index_set) {
      const Value& key = p->punct.pattern(key_index).constant();
      const uint64_t key_hash = key.Hash();
      const int part = state->PartitionOfHash(key_hash);
      auto visit = [&](TupleEntry& t) {
        if (t.pid == kNullPid && p->punct.Matches(t.tuple)) assign(t, p);
      };
      scanned += state->ForEachMemoryMatch(part, key, key_hash, visit);
      for (TupleEntry& t : state->purge_buffer(part)) {
        ++scanned;
        if (t.key_hash == key_hash && state->KeyOf(t.tuple) == key) visit(t);
      }
    }
  } else {
    auto index_entries = [&](std::vector<TupleEntry>& entries) {
      for (TupleEntry& t : entries) {
        ++scanned;
        if (t.pid != kNullPid) continue;
        for (PunctEntry* p : index_set) {
          if (p->punct.Matches(t.tuple)) {
            assign(t, p);
            break;
          }
        }
      }
    };
    for (int p = 0; p < state->num_partitions(); ++p) {
      index_entries(state->memory(p));
      // The purge buffer is still part of the state (its tuples can produce
      // further results against the opposite disk portion), so it must hold
      // propagation back as well.
      index_entries(state->purge_buffer(p));
    }
  }

  for (PunctEntry* p : index_set) p->indexed = true;
  if (counters != nullptr) {
    counters->Add("index_scanned_tuples", scanned);
    counters->Add("index_assignments", assignments);
  }
  return assignments;
}

void PunctuationIndexer::IndexEntry(PunctuationSet* ps, TupleEntry* entry) {
  if (entry->pid != kNullPid) return;
  PunctEntry* match = ps->FindFirstMatch(entry->tuple);
  if (match != nullptr) {
    entry->pid = match->pid;
    ++match->match_count;
  }
}

void PunctuationIndexer::OnEntryDiscarded(PunctuationSet* ps,
                                          const TupleEntry& entry) {
  if (entry.pid == kNullPid) return;
  PunctEntry* p = ps->Find(entry.pid);
  // The punctuation must still be present: it cannot have been propagated
  // while this entry contributed to its count.
  PJOIN_DCHECK(p != nullptr);
  --p->match_count;
  PJOIN_DCHECK(p->match_count >= 0);
}

std::vector<Punctuation> Propagator::Propagate(PunctuationSet* ps) {
  std::vector<Punctuation> released;
  std::vector<const Punctuation*> blocked;
  std::vector<int64_t> released_pids;
  ps->ForEach([&](PunctEntry& entry) {
    bool overlap_blocked = false;
    for (const Punctuation* b : blocked) {
      if (!Punctuation::And(*b, entry.punct).IsEmpty()) {
        overlap_blocked = true;
        break;
      }
    }
    if (entry.indexed && entry.match_count == 0 && !overlap_blocked) {
      released.push_back(entry.punct);
      released_pids.push_back(entry.pid);
    } else {
      blocked.push_back(&entry.punct);
    }
  });
  for (int64_t pid : released_pids) ps->RemoveRetainingCoverage(pid);
  return released;
}

}  // namespace pjoin
