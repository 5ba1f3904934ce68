#include "join/hash_state.h"

#include <algorithm>
#include <bit>
#include <functional>

namespace pjoin {
namespace {

// Index sizing: power-of-two bucket counts, load factor <= 1.
size_t IndexSizeFor(size_t entries) {
  return std::bit_ceil(std::max<size_t>(entries, 8));
}

}  // namespace

HashState::HashState(std::string name, SchemaPtr schema, size_t key_index,
                     int num_partitions, std::unique_ptr<SpillStore> spill,
                     bool indexed)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      key_index_(key_index),
      spill_(std::move(spill)),
      partitions_(static_cast<size_t>(num_partitions)),
      indexed_(indexed) {
  PJOIN_DCHECK(num_partitions > 0);
  PJOIN_DCHECK(schema_ != nullptr);
  PJOIN_DCHECK(key_index_ < schema_->num_fields());
  PJOIN_DCHECK(spill_ != nullptr);
}

int HashState::PartitionOf(const Value& key) const {
  return PartitionOfHash(key.Hash());
}

const HashState::Partition& HashState::partition(int p) const {
  PJOIN_DCHECK(p >= 0 && p < num_partitions());
  return partitions_[static_cast<size_t>(p)];
}

HashState::Partition& HashState::partition(int p) {
  PJOIN_DCHECK(p >= 0 && p < num_partitions());
  return partitions_[static_cast<size_t>(p)];
}

void HashState::RebuildIndex(Partition* part) {
  if (!indexed_) return;
  if (part->memory.empty()) {
    part->index_heads.clear();
    part->index_next.clear();
    part->index_shift = 0;
    return;
  }
  const size_t buckets = IndexSizeFor(part->memory.size());
  part->index_shift = 64 - std::countr_zero(buckets);
  part->index_heads.assign(buckets, kIndexNil);
  part->index_next.assign(part->memory.size(), kIndexNil);
  for (uint32_t i = 0; i < part->memory.size(); ++i) {
    const size_t b =
        IndexBucket(part->memory[i].key_hash, part->index_shift);
    part->index_next[i] = part->index_heads[b];
    part->index_heads[b] = i;
  }
}

void HashState::InsertMemory(TupleEntry entry) {
  PJOIN_DCHECK(entry.InMemory());
  // A caller that already knows the key hash (the batched probe path, disk
  // read-back) seeds entry.key_hash; 0 means "not computed" (tuple_entry.h)
  // and recomputing is always safe, so a zero-hash key just loses caching.
  if (entry.key_hash == 0) entry.RecomputeKeyHash(key_index_);
  const int p = PartitionOfHash(entry.key_hash);
  const int64_t bytes = static_cast<int64_t>(entry.tuple.ByteSize());
  memory_bytes_ += bytes;
  Partition& part = partition(p);
  part.memory_bytes += bytes;
  part.last_access_tick = std::max(part.last_access_tick, entry.ats);
  part.memory.push_back(std::move(entry));
  ++memory_tuples_;
  if (!indexed_) return;
  if (part.memory.size() > part.index_heads.size()) {
    RebuildIndex(&part);  // grow (doubles the bucket count) and relink
  } else {
    const uint32_t i = static_cast<uint32_t>(part.memory.size() - 1);
    const size_t b =
        IndexBucket(part.memory[i].key_hash, part.index_shift);
    part.index_next.push_back(part.index_heads[b]);
    part.index_heads[b] = i;
  }
}

std::vector<TupleEntry> HashState::ExtractMemoryKey(int p, const Value& key,
                                                    uint64_t key_hash,
                                                    int64_t* examined) {
  Partition& part = partition(p);
  if (!indexed_) {
    *examined += static_cast<int64_t>(part.memory.size());
    return ExtractMemoryMatching(
        p, [&](const TupleEntry& e) { return KeyOf(e.tuple) == key; });
  }
  if (part.index_heads.empty()) return {};
  // Unlink every match from the key's chain first, so the slot moves below
  // never meet a half-removed chain.
  std::vector<uint32_t> victims;
  uint32_t* link =
      &part.index_heads[IndexBucket(key_hash, part.index_shift)];
  while (*link != kIndexNil) {
    const uint32_t i = *link;
    ++*examined;
    const TupleEntry& e = part.memory[i];
    if (e.key_hash == key_hash && KeyOf(e.tuple) == key) {
      *link = part.index_next[i];
      victims.push_back(i);
    } else {
      link = &part.index_next[i];
    }
  }
  // Fill holes from the highest slot down: the last entry, which moves into
  // a hole, is then never itself a victim.
  std::sort(victims.begin(), victims.end(), std::greater<>());
  std::vector<TupleEntry> extracted;
  extracted.reserve(victims.size());
  for (uint32_t i : victims) {
    const int64_t bytes =
        static_cast<int64_t>(part.memory[i].tuple.ByteSize());
    memory_bytes_ -= bytes;
    part.memory_bytes -= bytes;
    extracted.push_back(std::move(part.memory[i]));
    const uint32_t last = static_cast<uint32_t>(part.memory.size() - 1);
    if (i != last) {
      uint32_t* to_last = &part.index_heads[IndexBucket(
          part.memory[last].key_hash, part.index_shift)];
      while (*to_last != last) to_last = &part.index_next[*to_last];
      *to_last = i;
      part.index_next[i] = part.index_next[last];
      part.memory[i] = std::move(part.memory[last]);
    }
    part.memory.pop_back();
    part.index_next.pop_back();
  }
  memory_tuples_ -= static_cast<int64_t>(extracted.size());
  PJOIN_DCHECK(memory_tuples_ >= 0);
  PJOIN_DCHECK(memory_bytes_ >= 0);
  return extracted;
}

const std::vector<TupleEntry>& HashState::memory(int p) const {
  return partition(p).memory;
}

std::vector<TupleEntry>& HashState::memory(int p) {
  return partition(p).memory;
}

void HashState::NotePartitionProbed(int p, int64_t tick) {
  Partition& part = partition(p);
  part.last_access_tick = std::max(part.last_access_tick, tick);
}

int64_t HashState::PartitionMemoryTuples(int p) const {
  return static_cast<int64_t>(partition(p).memory.size());
}

int64_t HashState::PartitionMemoryBytes(int p) const {
  return partition(p).memory_bytes;
}

int64_t HashState::PartitionLastAccessTick(int p) const {
  return partition(p).last_access_tick;
}

int HashState::LargestMemoryPartition() const {
  int best = -1;
  size_t best_size = 0;
  for (int p = 0; p < num_partitions(); ++p) {
    const size_t size = partitions_[static_cast<size_t>(p)].memory.size();
    if (size > best_size) {
      best_size = size;
      best = p;
    }
  }
  return best;
}

Status HashState::FlushPartitionToDisk(int p, int64_t dts_tick) {
  Partition& part = partition(p);
  if (part.memory.empty()) return Status::OK();
  std::vector<std::string> records;
  records.reserve(part.memory.size());
  for (auto& entry : part.memory) {
    entry.dts = dts_tick;
    records.push_back(entry.Serialize());
  }
  const int64_t before = spill_->PartitionRecordCount(p);
  const Status append = spill_->AppendBatch(p, records);
  if (!append.ok()) {
    // The store may still have persisted a durable prefix of the batch
    // (short write, mid-batch error): AppendBatch commits its record count
    // only per durable page, and serialization follows memory order, so
    // exactly the first `persisted` entries are on disk. Account those as
    // disk-resident (a later retry must not write them again) and keep the
    // rest in memory, alive (they must not be lost).
    const int64_t persisted = spill_->PartitionRecordCount(p) - before;
    PJOIN_DCHECK(persisted >= 0 &&
                 persisted <= static_cast<int64_t>(part.memory.size()));
    if (persisted > 0) {
      bool unindexed = false;
      for (int64_t i = 0; i < persisted; ++i) {
        const TupleEntry& entry = part.memory[static_cast<size_t>(i)];
        if (entry.pid == kNullPid) unindexed = true;
        const int64_t bytes = static_cast<int64_t>(entry.tuple.ByteSize());
        memory_bytes_ -= bytes;
        part.memory_bytes -= bytes;
      }
      part.memory.erase(part.memory.begin(), part.memory.begin() + persisted);
      memory_tuples_ -= persisted;
      part.disk_count += persisted;
      disk_tuples_ += persisted;
      if (unindexed) has_unindexed_disk_ = true;
      RebuildIndex(&part);
    }
    for (auto& entry : part.memory) entry.dts = kAliveDts;
    return append;
  }
  const int64_t flushed = static_cast<int64_t>(part.memory.size());
  bool unindexed = false;
  for (const auto& entry : part.memory) {
    if (entry.pid == kNullPid) unindexed = true;
  }
  memory_bytes_ -= part.memory_bytes;
  part.memory_bytes = 0;
  part.memory.clear();
  part.index_heads.clear();
  part.index_next.clear();
  part.index_shift = 0;
  part.disk_count += flushed;
  memory_tuples_ -= flushed;
  disk_tuples_ += flushed;
  if (unindexed) has_unindexed_disk_ = true;
  return Status::OK();
}

Result<std::vector<TupleEntry>> HashState::ReadDiskPartition(int p) {
  PJOIN_DCHECK(p >= 0 && p < num_partitions());
  PJOIN_ASSIGN_OR_RETURN(std::vector<std::string> records,
                         spill_->ReadPartition(p));
  std::vector<TupleEntry> entries;
  entries.reserve(records.size());
  for (const auto& record : records) {
    PJOIN_ASSIGN_OR_RETURN(TupleEntry entry,
                           TupleEntry::Deserialize(record, schema_));
    entry.RecomputeKeyHash(key_index_);
    entries.push_back(std::move(entry));
  }
  return entries;
}

Status HashState::RewriteDiskPartition(
    int p, const std::vector<TupleEntry>& survivors) {
  Partition& part = partition(p);
  PJOIN_RETURN_NOT_OK(spill_->ClearPartition(p));
  disk_tuples_ -= part.disk_count;
  part.disk_count = 0;
  if (!survivors.empty()) {
    std::vector<std::string> records;
    records.reserve(survivors.size());
    for (const auto& entry : survivors) records.push_back(entry.Serialize());
    PJOIN_RETURN_NOT_OK(spill_->AppendBatch(p, records));
    part.disk_count = static_cast<int64_t>(survivors.size());
    disk_tuples_ += part.disk_count;
  }
  PJOIN_DCHECK(disk_tuples_ >= 0);
  return Status::OK();
}

int64_t HashState::disk_tuples(int p) const { return partition(p).disk_count; }

void HashState::AddToPurgeBuffer(int p, TupleEntry entry) {
  PJOIN_DCHECK(!entry.InMemory());
  if (entry.key_hash == 0) entry.RecomputeKeyHash(key_index_);
  partition(p).purge_buffer.push_back(std::move(entry));
  ++purge_buffer_tuples_;
}

const std::vector<TupleEntry>& HashState::purge_buffer(int p) const {
  return partition(p).purge_buffer;
}

std::vector<TupleEntry>& HashState::purge_buffer(int p) {
  return partition(p).purge_buffer;
}

std::vector<TupleEntry> HashState::TakePurgeBuffer(int p) {
  auto& buf = partition(p).purge_buffer;
  std::vector<TupleEntry> taken = std::move(buf);
  buf.clear();
  purge_buffer_tuples_ -= static_cast<int64_t>(taken.size());
  PJOIN_DCHECK(purge_buffer_tuples_ >= 0);
  return taken;
}

void HashState::RecordProbe(int p, int64_t tick) {
  partition(p).probe_times.push_back(tick);
}

const std::vector<int64_t>& HashState::probe_times(int p) const {
  return partition(p).probe_times;
}

std::string HashState::DescribeState() const {
  std::string out = name_ + " state: " + std::to_string(memory_tuples_) +
                    " mem (" + std::to_string(memory_bytes_) + " B), " +
                    std::to_string(disk_tuples_) + " disk, " +
                    std::to_string(purge_buffer_tuples_) + " buffered\n";
  for (int p = 0; p < num_partitions(); ++p) {
    const Partition& part = partitions_[static_cast<size_t>(p)];
    if (part.memory.empty() && part.disk_count == 0 &&
        part.purge_buffer.empty()) {
      continue;
    }
    out += "  partition " + std::to_string(p) + ": mem=" +
           std::to_string(part.memory.size()) + " disk=" +
           std::to_string(part.disk_count) + " buffered=" +
           std::to_string(part.purge_buffer.size()) + " probes=" +
           std::to_string(part.probe_times.size()) + "\n";
  }
  return out;
}

bool JoinedBefore(const TupleEntry& a, const std::vector<int64_t>& probes_a,
                  const TupleEntry& b, const std::vector<int64_t>& probes_b) {
  if (IntervalsOverlap(a, b)) return true;
  // A disk probe of a's side at tick T joined (a, b) when a was on disk by T
  // and b was memory-resident at T.
  for (int64_t t : probes_a) {
    if (a.dts <= t && b.ats <= t && t < b.dts) return true;
  }
  for (int64_t t : probes_b) {
    if (b.dts <= t && a.ats <= t && t < a.dts) return true;
  }
  return false;
}

}  // namespace pjoin
