#include "obs/progress.h"

#include "common/mutex.h"

namespace pjoin {
namespace obs {

FrontierTracker& FrontierTracker::Global() {
  static FrontierTracker* tracker = new FrontierTracker();  // leaked
  return *tracker;
}

FrontierTracker::Cell* FrontierTracker::GetCell(int side,
                                                std::string_view scheme,
                                                int shard) {
  const std::tuple<int, std::string, int> key(side, std::string(scheme),
                                              shard);
  MutexLock lock(mu_);
  auto it = cells_.find(key);
  if (it == cells_.end()) {
    it = cells_.emplace(key, std::make_unique<Cell>()).first;
  }
  return it->second.get();
}

FrontierTracker::PurgeCell* FrontierTracker::GetPurgeCell(int shard) {
  MutexLock lock(mu_);
  auto it = purge_cells_.find(shard);
  if (it == purge_cells_.end()) {
    it = purge_cells_.emplace(shard, std::make_unique<PurgeCell>()).first;
  }
  return it->second.get();
}

void FrontierTracker::NoteIngress(int side, std::string_view scheme,
                                  int shard, TimeMicros now_us,
                                  std::string_view punct) {
  Cell* cell = GetCell(side, scheme, shard);
  const int64_t ingress = cell->ingress.fetch_add(1) + 1;
  cell->last_ingress_us.store(now_us);
  // Falling behind starts now if the shard has not already caught up. The
  // read below can race the shard's NoteProcessed — the worst case is a
  // behind_since a few microseconds off, which the second-scale stall
  // thresholds never notice.
  if (cell->processed.load() < ingress &&
      cell->behind_since_us.load() == 0) {
    cell->behind_since_us.store(now_us);
  }
  MutexLock lock(cell->punct_mu);
  cell->last_punct.assign(punct.data(), punct.size());
}

void FrontierTracker::NoteProcessed(int side, std::string_view scheme,
                                    int shard, TimeMicros now_us) {
  Cell* cell = GetCell(side, scheme, shard);
  const int64_t processed = cell->processed.fetch_add(1) + 1;
  cell->last_processed_us.store(now_us);
  if (processed >= cell->ingress.load()) {
    cell->behind_since_us.store(0);
  }
}

void FrontierTracker::NotePurgeExpected(int shard) {
  GetPurgeCell(shard)->pending_puncts.fetch_add(1);
}

void FrontierTracker::NotePurgeFired(int shard) {
  GetPurgeCell(shard)->pending_puncts.store(0);
}

FrontierSnapshot FrontierTracker::Snap() const {
  FrontierSnapshot snap;
  MutexLock lock(mu_);
  snap.cells.reserve(cells_.size());
  for (const auto& [key, cell] : cells_) {
    FrontierCell out;
    out.side = std::get<0>(key);
    out.scheme = std::get<1>(key);
    out.shard = std::get<2>(key);
    out.ingress_count = cell->ingress.load();
    out.processed_count = cell->processed.load();
    out.last_ingress_us = cell->last_ingress_us.load();
    out.last_processed_us = cell->last_processed_us.load();
    out.behind_since_us = cell->behind_since_us.load();
    {
      MutexLock punct_lock(cell->punct_mu);
      out.last_punct = cell->last_punct;
    }
    snap.cells.push_back(std::move(out));
  }
  snap.purges.reserve(purge_cells_.size());
  for (const auto& [shard, cell] : purge_cells_) {
    PurgeExpectation out;
    out.shard = shard;
    out.pending_puncts = cell->pending_puncts.load();
    snap.purges.push_back(out);
  }
  return snap;
}

void FrontierTracker::ResetForTest() {
  MutexLock lock(mu_);
  cells_.clear();
  purge_cells_.clear();
}

}  // namespace obs
}  // namespace pjoin
