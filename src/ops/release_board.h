// PunctReleaseBoard: exactly-once punctuation emission over sharded
// releases — the merger-side half of the parallel pipeline's punctuation
// contract (paper §3.3; docs/PERFORMANCE.md "The lock-free spine").
//
// The router dispatches a punctuation either to one shard (constant
// join-key pattern — a key's shard is a pure function of its hash, so only
// the key's owning shard can hold covered state) or to every shard
// (broadcast). The board infers that fan-out from the punctuation's
// pattern alone. Each receiving shard releases the punctuation after the
// results it covers. The board counts those releases and reports
// completion exactly when the last expected shard has released, so the
// pipeline emits each punctuation exactly once: never early (a missing
// shard could still hold covered results), never twice, and tolerant of
// the same punctuation string recurring in the stream (counting, not
// erase-at-full-round).
//
// Threading: the board is deliberately plain sequential state, owned by
// the single merger thread (router/caller). The concurrency around it —
// shards pushing releases through their output rings, the merger draining
// them — lives in SpscRing; tests/model_check_test.cc model-checks the
// combined rings+board protocol (exactly-once under every interleaving,
// both routed and broadcast) by driving this same class from model
// threads over SpscRing<_, mc::ModelPolicy> edges.

#ifndef PJOIN_OPS_RELEASE_BOARD_H_
#define PJOIN_OPS_RELEASE_BOARD_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "punct/punctuation.h"

namespace pjoin {

class PunctReleaseBoard {
 public:
  PunctReleaseBoard() = default;

  /// `left_key_pos` / `right_key_pos`: positions of the two join keys in
  /// the join's *output* schema (the join transfers the key pattern to
  /// both, so a constant at either identifies a key-routed punctuation).
  /// `num_shards`: broadcast fan-out.
  void Configure(size_t left_key_pos, size_t right_key_pos, int num_shards);

  /// How many shard releases complete one emission of `p`: 1 for a
  /// constant-key punctuation (routed to the key's owning shard alone),
  /// num_shards for a broadcast pattern.
  int ExpectedShards(const Punctuation& p) const;

  /// Records one shard's release of `p`. Returns true exactly when this
  /// release completes a full round — the caller emits `p` then and only
  /// then.
  bool Release(const Punctuation& p);

  /// Punctuations currently mid-round (released by some but not yet all
  /// expected shards). 0 after a clean run. O(1) — maintained on Release,
  /// so the merger can publish it per batch (pjoin_punct_pending_rounds).
  int64_t pending_rounds() const { return pending_; }

 private:
  size_t key_pos_[2] = {0, 0};
  int num_shards_ = 1;
  /// Releases of the open round per punctuation string.
  std::map<std::string, int> counts_;
  /// Entries with count != 0 (mid-round), kept in lockstep by Release.
  int64_t pending_ = 0;
};

}  // namespace pjoin

#endif  // PJOIN_OPS_RELEASE_BOARD_H_
