// StreamElement: one item of a punctuated stream — a tuple, a punctuation,
// or the end-of-stream marker — with its arrival timestamp. StreamSource is
// the pull-style producer of such elements.

#ifndef PJOIN_STREAM_ELEMENT_H_
#define PJOIN_STREAM_ELEMENT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <variant>

#include "common/clock.h"
#include "punct/punctuation.h"
#include "tuple/tuple.h"

namespace pjoin {

enum class ElementKind { kTuple = 0, kPunctuation, kEndOfStream };

class StreamElement {
 public:
  /// A data tuple arriving at time `arrival`.
  static StreamElement MakeTuple(Tuple t, TimeMicros arrival, int64_t seq = 0);
  /// A punctuation arriving at time `arrival`.
  static StreamElement MakePunctuation(Punctuation p, TimeMicros arrival,
                                       int64_t seq = 0);
  /// End-of-stream marker.
  static StreamElement MakeEndOfStream(TimeMicros arrival, int64_t seq = 0);

  StreamElement() : kind_(ElementKind::kEndOfStream) {}

  ElementKind kind() const { return kind_; }
  bool is_tuple() const { return kind_ == ElementKind::kTuple; }
  bool is_punctuation() const { return kind_ == ElementKind::kPunctuation; }
  bool is_end_of_stream() const { return kind_ == ElementKind::kEndOfStream; }

  const Tuple& tuple() const;
  const Punctuation& punctuation() const;

  /// Virtual arrival time assigned by the generator.
  TimeMicros arrival() const { return arrival_; }
  /// Per-stream sequence number (tuples and punctuations share one counter).
  int64_t seq() const { return seq_; }

  std::string ToString() const;

 private:
  ElementKind kind_;
  std::variant<std::monostate, Tuple, Punctuation> payload_;
  TimeMicros arrival_ = 0;
  int64_t seq_ = 0;
};

/// Pull-style element source (generators implement this).
class StreamSource {
 public:
  virtual ~StreamSource() = default;
  /// Produces the next element, or nullopt when the stream ends.
  virtual std::optional<StreamElement> Next() = 0;
};

}  // namespace pjoin

#endif  // PJOIN_STREAM_ELEMENT_H_
