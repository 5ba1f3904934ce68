#include "ops/release_board.h"

#include "common/macros.h"
#include "punct/pattern.h"

namespace pjoin {

void PunctReleaseBoard::Configure(size_t left_key_pos, size_t right_key_pos,
                                  int num_shards) {
  PJOIN_DCHECK(num_shards > 0);
  key_pos_[0] = left_key_pos;
  key_pos_[1] = right_key_pos;
  num_shards_ = num_shards;
}

int PunctReleaseBoard::ExpectedShards(const Punctuation& p) const {
  // Mirrors the router's dispatch rule from the release side: a punctuation
  // whose join-key pattern is a constant was routed to the key's owning
  // shard alone, so exactly one release completes it; anything else was
  // broadcast and needs a release from every shard.
  for (const size_t pos : key_pos_) {
    if (pos < p.num_patterns() && p.pattern(pos).IsConstant()) return 1;
  }
  return num_shards_;
}

bool PunctReleaseBoard::Release(const Punctuation& p) {
  int& count = counts_[p.ToString()];
  const bool was_mid_round = count != 0;
  if (++count < ExpectedShards(p)) {
    if (!was_mid_round) ++pending_;
    return false;
  }
  count = 0;
  if (was_mid_round) --pending_;
  return true;
}

}  // namespace pjoin
