// Cross-cutting runtime invariants (DESIGN.md invariants 2-5): duplicate
// freedom with tagged tuples, purge safety, propagation safety under
// spilling, and state accounting consistency; plus the key-addressed purge
// and index build checked against the linear scans they replace.

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "gen/stream_generator.h"
#include "join/pjoin.h"
#include "join/punct_index.h"
#include "join/xjoin.h"
#include "storage/simulated_disk.h"
#include "test_util.h"

namespace pjoin {
namespace {

// Streams whose payloads are globally unique sequence numbers, so any
// emitted pair has a unique identity and duplicates are detectable exactly.
GeneratedStreams UniquePayloadStreams(int64_t n, double punct_a,
                                      double punct_b, uint64_t seed) {
  DomainSpec d;
  d.window_size = 6;
  StreamSpec a;
  a.num_tuples = n;
  a.punct_mean_interarrival_tuples = punct_a;
  StreamSpec b = a;
  b.punct_mean_interarrival_tuples = punct_b;
  GeneratedStreams g = GenerateStreams(d, a, b, seed);
  // Rewrite payloads to unique ids, preserving keys and timing.
  int64_t uid = 0;
  for (auto* stream : {&g.a, &g.b}) {
    for (auto& e : *stream) {
      if (!e.is_tuple()) continue;
      const SchemaPtr& schema = e.tuple().schema();
      Tuple unique(schema, {e.tuple().field(0), Value(uid++)});
      e = StreamElement::MakeTuple(std::move(unique), e.arrival(), e.seq());
    }
  }
  return g;
}

TEST(InvariantsTest, NoDuplicatePairsUnderHeavySpill) {
  GeneratedStreams g = UniquePayloadStreams(300, 10, 10, 42);
  JoinOptions opts;
  opts.runtime.memory_threshold_tuples = 8;
  PJoin join(g.schema_a, g.schema_b, opts);
  std::set<std::pair<int64_t, int64_t>> seen;
  bool duplicate = false;
  join.set_result_callback([&](const Tuple& t) {
    // Fields: key, a-payload(uid), key_r, b-payload(uid).
    auto pair = std::make_pair(t.field(1).AsInt64(), t.field(3).AsInt64());
    if (!seen.insert(pair).second) duplicate = true;
  });
  JoinPipeline pipe(&join, nullptr,
                    PipelineOptions{.stall_gap_micros = 7000});
  ASSERT_TRUE(pipe.Run(g.a, g.b).ok());
  EXPECT_FALSE(duplicate);
}

TEST(InvariantsTest, NoDuplicatePairsXJoinReactiveAndCleanup) {
  GeneratedStreams g = UniquePayloadStreams(300, 0, 0, 43);
  JoinOptions opts;
  opts.runtime.memory_threshold_tuples = 8;
  XJoin join(g.schema_a, g.schema_b, opts);
  std::set<std::pair<int64_t, int64_t>> seen;
  bool duplicate = false;
  join.set_result_callback([&](const Tuple& t) {
    auto pair = std::make_pair(t.field(1).AsInt64(), t.field(3).AsInt64());
    if (!seen.insert(pair).second) duplicate = true;
  });
  JoinPipeline pipe(&join, nullptr,
                    PipelineOptions{.stall_gap_micros = 7000});
  ASSERT_TRUE(pipe.Run(g.a, g.b).ok());
  EXPECT_FALSE(duplicate);
}

// Purge safety: replay the run; every result pair must also be produced by
// a purge-free join (no pair involves a tuple that was wrongly purged, and
// purging loses nothing — both directions covered by result equality, which
// equivalence_test checks; here we additionally assert that purged tuples
// could never have joined the remainder of the opposite stream).
TEST(InvariantsTest, PurgedTuplesHaveNoFuturePartners) {
  DomainSpec d;
  d.window_size = 6;
  StreamSpec spec;
  spec.num_tuples = 400;
  spec.punct_mean_interarrival_tuples = 8;
  GeneratedStreams g = GenerateStreams(d, spec, spec, 77);

  // Collect, per element index, the set of punctuation-covered keys at that
  // point; then verify no later opposite tuple carries a covered key.
  PunctuationSet covered_a(0);  // punctuations seen on stream A
  for (size_t i = 0; i < g.a.size(); ++i) {
    if (g.a[i].is_punctuation()) {
      ASSERT_TRUE(covered_a.Add(g.a[i].punctuation(), 0).ok());
      // All B tuples arriving after this A punctuation (by arrival time)
      // must not match it on the join key.
      const TimeMicros t = g.a[i].arrival();
      for (const StreamElement& e : g.b) {
        if (e.is_tuple() && e.arrival() > t) {
          // If covered now, a B tuple with this key would join state that
          // PJoin has already purged; the generator must not produce it.
          // (The *A* side can't produce it either — checked in
          // generator_test — so purge is safe.)
          if (covered_a.SetMatchKey(e.tuple().field(0))) {
            // The only acceptable case: the same key was punctuated on A
            // before B stopped sending it — impossible by SharedDomain
            // construction, so flag it.
            ADD_FAILURE() << "B tuple " << e.tuple().ToString()
                          << " arrives after A punctuation covering its key";
          }
        }
      }
      break;  // one punctuation suffices for this O(n^2) spot check…
    }
  }
}

TEST(InvariantsTest, StateAccountingConsistent) {
  DomainSpec d;
  StreamSpec spec;
  spec.num_tuples = 500;
  spec.punct_mean_interarrival_tuples = 10;
  GeneratedStreams g = GenerateStreams(d, spec, spec, 88);

  JoinOptions opts;
  opts.runtime.memory_threshold_tuples = 32;
  PJoin join(g.schema_a, g.schema_b, opts);
  JoinPipeline pipe(&join, nullptr,
                    PipelineOptions{.stall_gap_micros = 7000});
  ASSERT_TRUE(pipe.Run(g.a, g.b).ok());

  for (int side = 0; side < 2; ++side) {
    const HashState& st = join.state(side);
    int64_t mem = 0;
    int64_t disk = 0;
    int64_t buffered = 0;
    for (int p = 0; p < st.num_partitions(); ++p) {
      mem += static_cast<int64_t>(st.memory(p).size());
      disk += st.disk_tuples(p);
      buffered += static_cast<int64_t>(st.purge_buffer(p).size());
    }
    EXPECT_EQ(mem, st.memory_tuples());
    EXPECT_EQ(disk, st.disk_tuples());
    EXPECT_EQ(buffered, st.purge_buffer_tuples());
    EXPECT_EQ(st.total_tuples(), mem + disk + buffered);
    EXPECT_GE(st.memory_tuples(), 0);
  }
}

TEST(InvariantsTest, MatchCountsNeverNegativeAndConsistent) {
  DomainSpec d;
  StreamSpec spec;
  spec.num_tuples = 500;
  spec.punct_mean_interarrival_tuples = 10;
  spec.flush_punctuations_at_end = true;
  GeneratedStreams g = GenerateStreams(d, spec, spec, 99);

  JoinOptions opts;
  opts.runtime.propagate_count_threshold = 3;
  opts.eager_index_build = true;
  PJoin join(g.schema_a, g.schema_b, opts);
  JoinPipeline pipe(&join, nullptr);
  ASSERT_TRUE(pipe.Run(g.a, g.b).ok());

  for (int side = 0; side < 2; ++side) {
    const_cast<PunctuationSet&>(join.punct_set(side))
        .ForEach([](PunctEntry& e) { EXPECT_GE(e.match_count, 0); });
  }
}

TEST(InvariantsTest, ConservationOfTuples) {
  // Every arriving tuple is exactly one of: still in state, purged,
  // dropped on the fly, or cleared from a purge buffer.
  DomainSpec d;
  StreamSpec spec;
  spec.num_tuples = 500;
  spec.punct_mean_interarrival_tuples = 8;
  GeneratedStreams g = GenerateStreams(d, spec, spec, 123);

  JoinOptions opts;
  opts.runtime.memory_threshold_tuples = 48;
  PJoin join(g.schema_a, g.schema_b, opts);
  JoinPipeline pipe(&join, nullptr,
                    PipelineOptions{.stall_gap_micros = 7000});
  ASSERT_TRUE(pipe.Run(g.a, g.b).ok());

  const int64_t arrived = join.counters().Get("tuples_in");
  const int64_t retained = join.total_state_tuples();
  const int64_t purged = join.counters().Get("purged_tuples");
  const int64_t disk_purged = join.counters().Get("disk_purged_tuples");
  const int64_t otf = join.counters().Get("otf_drops");
  const int64_t buffer_cleared = join.counters().Get("purge_buffer_cleared");
  EXPECT_EQ(arrived, retained + purged + disk_purged + otf + buffer_cleared);
}

// ---- Key-addressed purge and index build vs. their linear scans ----

SchemaPtr KeyPayload() {
  return Schema::Make({{"key", ValueType::kInt64}, {"p", ValueType::kInt64}});
}

// The hash a test entry of `key` carries: keys divisible by 3 all share one
// forced hash, so their chains collide outright and only the key compare
// tells them apart.
uint64_t TestKeyHash(int64_t key) {
  return key % 3 == 0 ? 0x5eed : Value(key).Hash();
}

void InsertKey(HashState* st, int64_t key, int64_t payload) {
  TupleEntry e;
  e.tuple = Tuple(st->schema(), {Value(key), Value(payload)});
  e.ats = payload;
  e.key_hash = TestKeyHash(key);
  st->InsertMemory(std::move(e));
}

std::vector<TupleEntry> PurgeKey(HashState* st, int64_t key) {
  const uint64_t h = TestKeyHash(key);
  int64_t examined = 0;
  return st->ExtractMemoryKey(st->PartitionOfHash(h), Value(key), h,
                              &examined);
}

// Every key's chain probe must list exactly the entries a linear filter of
// its partition finds, and the accounting must match the vectors.
void ExpectChainsMatchLinearScan(const HashState& st, int64_t max_key) {
  int64_t mem = 0;
  for (int p = 0; p < st.num_partitions(); ++p) {
    mem += static_cast<int64_t>(st.memory(p).size());
  }
  EXPECT_EQ(mem, st.memory_tuples());
  for (int64_t key = 0; key <= max_key; ++key) {
    const uint64_t h = TestKeyHash(key);
    const int p = st.PartitionOfHash(h);
    std::multiset<int64_t> chain;
    st.ForEachMemoryMatch(p, Value(key), h, [&](const TupleEntry& e) {
      chain.insert(e.tuple.field(1).AsInt64());
    });
    std::multiset<int64_t> linear;
    for (const TupleEntry& e : st.memory(p)) {
      if (st.KeyOf(e.tuple).AsInt64() == key) {
        linear.insert(e.tuple.field(1).AsInt64());
      }
    }
    EXPECT_EQ(chain, linear) << "key " << key;
  }
}

TEST(InvariantsTest, KeyChainPurgeMatchesLinearFilter) {
  HashState st("s", KeyPayload(), 0, 2, std::make_unique<SimulatedDisk>());
  // Keys 3 and 6 share the forced hash, hence one partition and one chain.
  // Purging 3 removes the last slot itself, then slot 0, into which the
  // key-6 entry moves.
  InsertKey(&st, 3, 0);
  InsertKey(&st, 6, 1);
  InsertKey(&st, 3, 2);
  EXPECT_EQ(PurgeKey(&st, 3).size(), 2u);
  ExpectChainsMatchLinearScan(st, 6);
  // Emptying the partition, then refilling it.
  EXPECT_EQ(PurgeKey(&st, 6).size(), 1u);
  EXPECT_TRUE(st.memory(st.PartitionOfHash(TestKeyHash(6))).empty());
  EXPECT_TRUE(PurgeKey(&st, 6).empty());
  InsertKey(&st, 6, 3);
  ExpectChainsMatchLinearScan(st, 6);

  // Random inserts and purges over 40 keys, 14 of them sharing one hash.
  std::mt19937_64 rng(7);
  int64_t payload = 100;
  for (int round = 0; round < 400; ++round) {
    const int64_t key = static_cast<int64_t>(rng() % 40);
    if (rng() % 3 == 0) {
      const int64_t before = st.memory_tuples();
      int64_t expected = 0;
      const HashState& cst = st;
      for (const TupleEntry& e :
           cst.memory(st.PartitionOfHash(TestKeyHash(key)))) {
        if (st.KeyOf(e.tuple).AsInt64() == key) ++expected;
      }
      const std::vector<TupleEntry> out = PurgeKey(&st, key);
      EXPECT_EQ(static_cast<int64_t>(out.size()), expected);
      for (const TupleEntry& e : out) {
        EXPECT_EQ(st.KeyOf(e.tuple).AsInt64(), key);
      }
      EXPECT_EQ(st.memory_tuples(), before - expected);
      ExpectChainsMatchLinearScan(st, 39);
    } else {
      InsertKey(&st, key, payload++);
    }
  }
  ExpectChainsMatchLinearScan(st, 39);
}

// Fills two identically built states' memory and purge buffers.
void FillIndexState(HashState* st) {
  for (int64_t i = 0; i < 300; ++i) {
    TupleEntry e;
    e.tuple = Tuple(st->schema(), {Value(i % 23), Value(i % 7)});
    e.ats = i;
    if (i % 5 == 0) {
      e.dts = i + 1;
      const int p = st->PartitionOf(e.tuple.field(0));
      st->AddToPurgeBuffer(p, std::move(e));
    } else {
      st->InsertMemory(std::move(e));
    }
  }
}

// The pids the paper's Fig 3 scan assigns: per unassigned entry, the first
// punctuation of `batch` (arrival order) that matches it.
void ScanIndex(PunctuationSet* ps, const std::vector<int64_t>& batch,
               HashState* st) {
  auto index = [&](std::vector<TupleEntry>& entries) {
    for (TupleEntry& t : entries) {
      if (t.pid != kNullPid) continue;
      for (int64_t pid : batch) {
        PunctEntry* pe = ps->Find(pid);
        if (pe->punct.Matches(t.tuple)) {
          t.pid = pid;
          ++pe->match_count;
          break;
        }
      }
    }
  };
  for (int p = 0; p < st->num_partitions(); ++p) {
    index(st->memory(p));
    index(st->purge_buffer(p));
  }
}

void ExpectSameIndex(HashState* a, PunctuationSet* ps_a, HashState* b,
                     PunctuationSet* ps_b) {
  auto same_pids = [](const std::vector<TupleEntry>& ea,
                       const std::vector<TupleEntry>& eb) {
    ASSERT_EQ(ea.size(), eb.size());
    for (size_t i = 0; i < ea.size(); ++i) {
      EXPECT_EQ(ea[i].pid, eb[i].pid) << ea[i].tuple.ToString();
    }
  };
  for (int p = 0; p < a->num_partitions(); ++p) {
    same_pids(a->memory(p), b->memory(p));
    same_pids(a->purge_buffer(p), b->purge_buffer(p));
  }
  std::vector<int64_t> counts_a;
  std::vector<int64_t> counts_b;
  ps_a->ForEach([&](PunctEntry& e) { counts_a.push_back(e.match_count); });
  ps_b->ForEach([&](PunctEntry& e) { counts_b.push_back(e.match_count); });
  EXPECT_EQ(counts_a, counts_b);
}

Punctuation KeyAndPayload(int64_t key, Pattern payload) {
  return Punctuation({Pattern::Constant(Value(key)), std::move(payload)});
}

TEST(InvariantsTest, KeyedIndexBuildMatchesScan) {
  const SchemaPtr schema = KeyPayload();
  HashState keyed("k", schema, 0, 4, std::make_unique<SimulatedDisk>());
  HashState scanned("s", schema, 0, 4, std::make_unique<SimulatedDisk>());
  FillIndexState(&keyed);
  FillIndexState(&scanned);
  const int64_t entries = keyed.memory_tuples() + keyed.purge_buffer_tuples();
  PunctuationSet ps_keyed(0);
  PunctuationSet ps_scanned(0);
  auto add = [&](const Punctuation& p) {
    ASSERT_TRUE(ps_keyed.Add(p, 0).ok());
    ASSERT_TRUE(ps_scanned.Add(p, 0).ok());
  };
  // Batch 1, all constant keys: several punctuations on key 3 with
  // different payload patterns (the earliest match must win per entry),
  // plus keys whose entries sit in the purge buffers.
  add(KeyAndPayload(3, Pattern::Range(Value(int64_t{2}), Value(int64_t{4}))));
  add(KeyAndPayload(3, Pattern::Constant(Value(int64_t{3}))));
  add(KeyAndPayload(3, Pattern::Wildcard()));
  add(KeyAndPayload(5, Pattern::Constant(Value(int64_t{5}))));
  add(KeyAndPayload(10, Pattern::Wildcard()));
  add(KeyAndPayload(20, Pattern::Wildcard()));
  add(KeyAndPayload(77, Pattern::Wildcard()));  // no entry carries it
  CounterSet counters;
  EXPECT_GT(PunctuationIndexer::BuildIndex(&ps_keyed, &keyed, &counters), 0);
  ScanIndex(&ps_scanned, ps_scanned.TakeUnindexed(), &scanned);
  ExpectSameIndex(&keyed, &ps_keyed, &scanned, &ps_scanned);
  // Only the named keys' chains and purge buffers were visited: fewer
  // entries for seven punctuations than one scan of the state.
  EXPECT_LT(counters.Get("index_scanned_tuples"), entries);

  // Batch 2 holds a range punctuation: the build falls back to the scan.
  add(KeyAndPayload(7, Pattern::Wildcard()));
  add(Punctuation({Pattern::Range(Value(int64_t{12}), Value(int64_t{16})),
                   Pattern::Wildcard()}));
  add(KeyAndPayload(14, Pattern::Wildcard()));
  CounterSet fallback;
  EXPECT_GT(PunctuationIndexer::BuildIndex(&ps_keyed, &keyed, &fallback), 0);
  ScanIndex(&ps_scanned, ps_scanned.TakeUnindexed(), &scanned);
  ExpectSameIndex(&keyed, &ps_keyed, &scanned, &ps_scanned);
  EXPECT_EQ(fallback.Get("index_scanned_tuples"), entries);
}

}  // namespace
}  // namespace pjoin
