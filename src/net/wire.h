#ifndef GSTORED_NET_WIRE_H_
#define GSTORED_NET_WIRE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/lec_feature.h"
#include "core/local_partial_match.h"
#include "store/matcher.h"
#include "util/bitvector_filter.h"
#include "util/status.h"

namespace gstored {

/// The typed messages of the cluster transport. Every message a site sends
/// the coordinator is one of these, serialized through the codecs below, and
/// the ShipmentLedger records each send's wire size (header + payload).
/// Coordinator -> site broadcasts (the Alg. 4 union, survivor bitmaps) carry
/// no wire type: InProcessTransport::BroadcastReliable models only the
/// delivery of a payload the caller keeps, at the same header size. The
/// values are fixed wire codes; deleted ones are not reused.
enum class MessageType : uint8_t {
  kCandidateFilters = 3,  ///< per-variable candidates, ids or vector (Alg. 4)
  kMatchBatch = 5,        ///< complete local matches
  kLecFeatureBatch = 6,   ///< the site's LEC features (Alg. 1)
  kLpmBatch = 8,          ///< surviving local partial matches
  kStageDone = 9,         ///< end-of-stage marker with count
};

/// One transport message: a fixed header plus a typed payload. The header
/// fields are filled by the transport (sender/stage/attempt/seq); producers
/// only set `type` and `payload`.
struct WireMessage {
  MessageType type = MessageType::kStageDone;
  int32_t sender = -1;   ///< site id, -1 for the coordinator
  uint32_t session = 0;  ///< query session id (serving layer); 0 = standalone
  uint32_t stage = 0;    ///< stage ordinal (QueryStage)
  uint32_t attempt = 0;  ///< retransmission attempt, 0-based
  uint32_t seq = 0;      ///< per (sender, stage, attempt) sequence number
  std::vector<uint8_t> payload;

  /// Header: type(1) + sender(4) + session(4) + stage(4) + attempt(4) +
  /// seq(4) + payload length(4).
  static constexpr size_t kHeaderBytes = 25;

  /// Serialized size — the bytes the ledger accounts per send.
  size_t WireSize() const { return kHeaderBytes + payload.size(); }
};

/// Builds a message with the given type/payload; header routing fields are
/// assigned by the transport at send time.
WireMessage MakeMessage(MessageType type, std::vector<uint8_t> payload);

// ---------------------------------------------------------------------------
// Payload codecs. Encoders are infallible; decoders are total functions of
// the payload bytes: any input (truncated, mutated, adversarial) either
// decodes or returns a Status — never crashes, hangs, or over-allocates
// (element counts are validated against the remaining byte budget before any
// reservation). A feature or LPM ships only what the query does not
// determine: its sign and the ids the sign requires. Their decoders take the
// query and the sending site's fragment and rebuild each item's binding and
// crossing mappings (CrossingMappings), so no decoded item can carry a
// mapping that contradicts its binding or names a non-edge. The filter-set
// decoder likewise takes the query variables a set must carry.
// ---------------------------------------------------------------------------

std::vector<uint8_t> EncodeBitmap(const std::vector<bool>& bits);
Result<std::vector<bool>> DecodeBitmap(const std::vector<uint8_t>& payload);

/// One variable's candidates in a filter set (Alg. 4), cut against a
/// `bits`-bit hashed vector: in the id form, the candidates themselves,
/// strictly ascending; in the vector form, the BitvectorFilter they hash
/// into. The id form is sent only while it encodes shorter than the vector
/// (IdsEncodeShorter), so no entry is longer than the vector entry.
struct FilterEntry {
  QVertexId var = 0;
  /// The vector length; in the vector form, vector->bits().
  size_t bits = 0;
  /// The id form's candidates; empty in the vector form.
  std::vector<TermId> ids;
  /// The vector form; unset in the id form.
  std::optional<BitvectorFilter> vector;
};

/// One site's candidate sets, or the coordinator's union broadcast.
using FilterSet = std::vector<FilterEntry>;

/// True when `num_ids` ids (4 bytes each) encode shorter than a `bits`-bit
/// vector (8 bytes per 64-bit word): fewer than 2 * ceil(bits / 64) ids.
bool IdsEncodeShorter(size_t num_ids, size_t bits);

/// `var`'s entry for its strictly ascending candidates `ids`: the id form
/// when IdsEncodeShorter, else the `bits`-bit vector of the ids.
FilterEntry MakeFilterEntry(QVertexId var, std::vector<TermId> ids,
                            size_t bits);

std::vector<uint8_t> EncodeFilterSet(const FilterSet& filters);
/// Accepts a set whose entries name exactly `variables`, in that order, so
/// a set that omits, repeats or adds a variable is rejected. An id entry
/// must hold strictly ascending ids and encode shorter than its vector.
Result<FilterSet> DecodeFilterSet(const std::vector<uint8_t>& payload,
                                  std::span<const QVertexId> variables);

/// Complete local matches of one site plus the site's LPM count (piggybacked
/// so the coordinator's Tables I-III stats survive without an extra message).
struct MatchBatch {
  uint64_t num_lpms = 0;
  uint32_t width = 0;  ///< binding width (query vertices)
  std::vector<Binding> matches;
};
std::vector<uint8_t> EncodeMatchBatch(uint64_t num_lpms, uint32_t width,
                                      const std::vector<Binding>& matches);
Result<MatchBatch> DecodeMatchBatch(const std::vector<uint8_t>& payload);

/// Encodes one site's features, whose signs span `width` query vertices
/// (the query's vertex count), each as its sign in ceil(width / 8) bytes
/// and the ids of its crossing endpoints in vertex order.
std::vector<uint8_t> EncodeLecFeatureBatch(
    const std::vector<LecFeature>& features, uint32_t width);
/// Rebuilds `fragment`'s features of `query`; rejects a query wider than
/// kMaxEnumerableVertices, a sign with no crossing edge, and a missing,
/// extra or kNullTerm id.
Result<std::vector<LecFeature>> DecodeLecFeatureBatch(
    const std::vector<uint8_t>& payload, const QueryGraph& query,
    FragmentId fragment);

/// Encodes lpms[i] for each i of `indices`, in that order, each as its sign
/// over its binding's width and its bound ids (island and boundary) in
/// vertex order. Stage D ships a site's LPMs in fixed-size batches of
/// indices into its cached LPMs, so drop/reorder faults hit individual
/// batches, not whole sites.
std::vector<uint8_t> EncodeLpmBatch(const std::vector<LocalPartialMatch>& lpms,
                                    std::span<const size_t> indices);
/// Rebuilds `fragment`'s LPMs of `query`, kNullTerm off the island and
/// boundary; rejects what DecodeLecFeatureBatch rejects.
Result<std::vector<LocalPartialMatch>> DecodeLpmBatch(
    const std::vector<uint8_t>& payload, const QueryGraph& query,
    FragmentId fragment);

std::vector<uint8_t> EncodeDoneMarker(uint32_t num_messages);
Result<uint32_t> DecodeDoneMarker(const std::vector<uint8_t>& payload);

}  // namespace gstored

#endif  // GSTORED_NET_WIRE_H_
