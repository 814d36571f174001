#include "net/wire.h"

#include <cstring>
#include <type_traits>

namespace gstored {

namespace {

/// Little-endian append-only writer.
class WireWriter {
 public:
  explicit WireWriter(std::vector<uint8_t>* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(v); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }

 private:
  void Raw(const void* p, size_t n) {
    const uint8_t* bytes = static_cast<const uint8_t*>(p);
    out_->insert(out_->end(), bytes, bytes + n);
  }
  std::vector<uint8_t>* out_;
};

/// Bounds-checked reader: every read past the end latches a failure flag and
/// returns 0, so decoders can read unconditionally and check ok() at the
/// element granularity needed to validate counts before allocating.
class WireReader {
 public:
  explicit WireReader(const std::vector<uint8_t>& bytes) : bytes_(bytes) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return ok_ ? bytes_.size() - pos_ : 0; }
  bool AtEnd() const { return ok_ && pos_ == bytes_.size(); }

  uint8_t U8() {
    uint8_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  uint32_t U32() {
    uint32_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  uint64_t U64() {
    uint64_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }

 private:
  void Raw(void* p, size_t n) {
    if (!ok_ || bytes_.size() - pos_ < n) {
      ok_ = false;
      return;
    }
    std::memcpy(p, bytes_.data() + pos_, n);
    pos_ += n;
  }

  const std::vector<uint8_t>& bytes_;
  size_t pos_ = 0;
  bool ok_ = true;
};

Status Truncated(const char* what) {
  return Status::ParseError(std::string("truncated or malformed ") + what);
}

/// A filter-set entry's element count word: with this bit clear it counts
/// the vector's words, with it set its low bits count the entry's ids.
constexpr uint32_t kIdEntry = uint32_t{1} << 31;

/// A feature or LPM row of an n-vertex query: the sign in ceil(n / 8)
/// bytes, LSB-first, then the non-null ids of `ids` (n wide) in vertex
/// order. The query and the sign determine which vertices those are.
void WriteRow(WireWriter& w, LecSign sign, const Binding& ids) {
  for (size_t i = 0; i < ids.size(); i += 8) {
    w.U8(static_cast<uint8_t>(sign >> i));
  }
  for (TermId id : ids) {
    if (id != kNullTerm) w.U32(id);
  }
}

/// Reads a WriteRow row of `q` (at most kMaxEnumerableVertices wide) into
/// `sign` and `ids`: the ids of the sign's crossing endpoints and, for an
/// LPM, of its island, kNullTerm elsewhere. A sign with no crossing edge (0,
/// or whole components), a missing id or a kNullTerm id fails; the sign's
/// padding bits past n are ignored.
bool ReadRow(WireReader& r, const QueryGraph& q, bool lpm, LecSign* sign,
             Binding* ids) {
  const size_t n = q.num_vertices();
  LecSign bits = 0;
  for (size_t i = 0; i < n; i += 8) bits |= LecSign{r.U8()} << i;
  bits &= FullSign(n);
  uint32_t carried = 0;
  for (const QueryEdge& e : q.edges()) {
    if (((bits >> e.from) & 1u) != ((bits >> e.to) & 1u)) {
      carried |= (uint32_t{1} << e.from) | (uint32_t{1} << e.to);
    }
  }
  if (carried == 0) return false;
  if (lpm) carried |= bits;
  ids->assign(n, kNullTerm);
  for (size_t v = 0; v < n; ++v) {
    if (((carried >> v) & 1u) == 0) continue;
    (*ids)[v] = r.U32();
    if ((*ids)[v] == kNullTerm) return false;
  }
  *sign = bits;
  return r.ok();
}

/// Decodes a batch of `fragment`'s features or LPMs of `query`, deriving
/// each item's crossing mappings from its sign and ids.
template <typename Item>
Result<std::vector<Item>> DecodeRows(const std::vector<uint8_t>& payload,
                                     const QueryGraph& query,
                                     FragmentId fragment, const char* what) {
  constexpr bool kLpm = std::is_same_v<Item, LocalPartialMatch>;
  const size_t n = query.num_vertices();
  WireReader r(payload);
  const uint32_t count = r.U32();
  // A row is at least its sign and the two ids of one crossing edge.
  if (!r.ok() || n > kMaxEnumerableVertices ||
      r.remaining() / ((n + 7) / 8 + 8) < count) {
    return Truncated(what);
  }
  std::vector<Item> out(count);
  Binding ids;
  for (Item& item : out) {
    item.fragment = fragment;
    if (!ReadRow(r, query, kLpm, &item.sign, &ids)) return Truncated(what);
    item.crossing = CrossingMappings(query, item.sign, ids);
    if constexpr (kLpm) item.binding = std::move(ids);
  }
  if (!r.AtEnd()) return Truncated(what);
  return out;
}

}  // namespace

WireMessage MakeMessage(MessageType type, std::vector<uint8_t> payload) {
  WireMessage msg;
  msg.type = type;
  msg.payload = std::move(payload);
  return msg;
}

// A bitmap is a u32 bit count, then the bits LSB-first in ceil(count / 8)
// bytes.
std::vector<uint8_t> EncodeBitmap(const std::vector<bool>& bits) {
  std::vector<uint8_t> out;
  out.reserve(4 + bits.size() / 8 + 1);
  WireWriter w(&out);
  w.U32(static_cast<uint32_t>(bits.size()));
  uint8_t acc = 0;
  for (size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) acc |= static_cast<uint8_t>(1u << (i & 7));
    if ((i & 7) == 7) {
      w.U8(acc);
      acc = 0;
    }
  }
  if (bits.size() % 8 != 0) w.U8(acc);
  return out;
}

Result<std::vector<bool>> DecodeBitmap(const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  const uint32_t count = r.U32();
  // A count whose bytes are not all there fails before anything is
  // allocated.
  if (!r.ok() || r.remaining() < (uint64_t{count} + 7) / 8) {
    return Truncated("bitmap");
  }
  std::vector<bool> bits(count);
  uint8_t acc = 0;
  for (uint32_t i = 0; i < count; ++i) {
    if ((i & 7) == 0) acc = r.U8();
    if (acc & (1u << (i & 7))) bits[i] = true;
  }
  if (!r.AtEnd()) return Truncated("bitmap");
  return bits;
}

bool IdsEncodeShorter(size_t num_ids, size_t bits) {
  return num_ids < 2 * ((bits + 63) / 64);
}

FilterEntry MakeFilterEntry(QVertexId var, std::vector<TermId> ids,
                            size_t bits) {
  FilterEntry entry;
  entry.var = var;
  entry.bits = bits;
  if (IdsEncodeShorter(ids.size(), bits)) {
    entry.ids = std::move(ids);
  } else {
    entry.vector.emplace(bits);
    for (TermId id : ids) entry.vector->Insert(id);
  }
  return entry;
}

std::vector<uint8_t> EncodeFilterSet(const FilterSet& filters) {
  std::vector<uint8_t> out;
  WireWriter w(&out);
  w.U32(static_cast<uint32_t>(filters.size()));
  for (const FilterEntry& entry : filters) {
    w.U32(entry.var);
    w.U64(entry.bits);
    if (entry.vector) {
      const std::vector<uint64_t>& words = entry.vector->words();
      w.U32(static_cast<uint32_t>(words.size()));
      for (uint64_t word : words) w.U64(word);
    } else {
      w.U32(kIdEntry | static_cast<uint32_t>(entry.ids.size()));
      for (TermId id : entry.ids) w.U32(id);
    }
  }
  return out;
}

Result<FilterSet> DecodeFilterSet(const std::vector<uint8_t>& payload,
                                  std::span<const QVertexId> variables) {
  WireReader r(payload);
  uint32_t count = r.U32();
  // Each entry is at least var + bits + element count = 16 bytes.
  if (!r.ok() || count != variables.size() || r.remaining() / 16 < count) {
    return Truncated("filter set");
  }
  FilterSet out;
  out.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    FilterEntry entry;
    entry.var = r.U32();
    uint64_t bits = r.U64();
    uint32_t elements = r.U32();
    if (!r.ok() || entry.var != variables[i] || bits == 0 ||
        bits > (uint64_t{1} << 26)) {
      return Truncated("filter set");
    }
    entry.bits = static_cast<size_t>(bits);
    const uint64_t num_words = (bits + 63) / 64;
    if ((elements & kIdEntry) != 0) {
      const uint32_t num_ids = elements & ~kIdEntry;
      if (!IdsEncodeShorter(num_ids, entry.bits) ||
          r.remaining() / 4 < num_ids) {
        return Truncated("filter set");
      }
      entry.ids.reserve(num_ids);
      for (uint32_t k = 0; k < num_ids; ++k) {
        const TermId id = r.U32();
        if (k > 0 && id <= entry.ids.back()) return Truncated("filter set");
        entry.ids.push_back(id);
      }
    } else {
      if (elements != num_words || r.remaining() / 8 < num_words) {
        return Truncated("filter set");
      }
      std::vector<uint64_t> words;
      words.reserve(num_words);
      for (uint64_t k = 0; k < num_words; ++k) words.push_back(r.U64());
      entry.vector.emplace(entry.bits);
      entry.vector->AssignWords(std::move(words));
    }
    if (!r.ok()) return Truncated("filter set");
    out.push_back(std::move(entry));
  }
  if (!r.AtEnd()) return Truncated("filter set");
  return out;
}

std::vector<uint8_t> EncodeMatchBatch(uint64_t num_lpms, uint32_t width,
                                      const std::vector<Binding>& matches) {
  std::vector<uint8_t> out;
  out.reserve(16 + matches.size() * width * 4);
  WireWriter w(&out);
  w.U64(num_lpms);
  w.U32(width);
  w.U32(static_cast<uint32_t>(matches.size()));
  for (const Binding& b : matches) {
    for (TermId id : b) w.U32(id);
  }
  return out;
}

Result<MatchBatch> DecodeMatchBatch(const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  MatchBatch batch;
  batch.num_lpms = r.U64();
  batch.width = r.U32();
  uint32_t count = r.U32();
  if (!r.ok() || batch.width > (1u << 20)) return Truncated("match batch");
  // A zero-width row takes no bytes, so no byte budget bounds `count`: a
  // zero-width batch must carry zero rows (the engine ships width 0 only
  // for a 0-vertex query, whose match list is empty).
  uint64_t row_bytes = uint64_t{4} * batch.width;
  if (row_bytes == 0 ? count != 0 : r.remaining() / row_bytes < count) {
    return Truncated("match batch");
  }
  batch.matches.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Binding b(batch.width, kNullTerm);
    for (uint32_t v = 0; v < batch.width; ++v) b[v] = r.U32();
    batch.matches.push_back(std::move(b));
  }
  if (!r.ok() || !r.AtEnd()) return Truncated("match batch");
  return batch;
}

std::vector<uint8_t> EncodeLecFeatureBatch(
    const std::vector<LecFeature>& features, uint32_t width) {
  std::vector<uint8_t> out;
  WireWriter w(&out);
  w.U32(static_cast<uint32_t>(features.size()));
  Binding ends;
  for (const LecFeature& f : features) {
    ends.assign(width, kNullTerm);
    for (const CrossingPairMap& c : f.crossing) {
      ends[c.q_from] = c.d_from;
      ends[c.q_to] = c.d_to;
    }
    WriteRow(w, f.sign, ends);
  }
  return out;
}

Result<std::vector<LecFeature>> DecodeLecFeatureBatch(
    const std::vector<uint8_t>& payload, const QueryGraph& query,
    FragmentId fragment) {
  return DecodeRows<LecFeature>(payload, query, fragment, "feature batch");
}

std::vector<uint8_t> EncodeLpmBatch(const std::vector<LocalPartialMatch>& lpms,
                                    std::span<const size_t> indices) {
  std::vector<uint8_t> out;
  WireWriter w(&out);
  w.U32(static_cast<uint32_t>(indices.size()));
  for (size_t i : indices) WriteRow(w, lpms[i].sign, lpms[i].binding);
  return out;
}

Result<std::vector<LocalPartialMatch>> DecodeLpmBatch(
    const std::vector<uint8_t>& payload, const QueryGraph& query,
    FragmentId fragment) {
  return DecodeRows<LocalPartialMatch>(payload, query, fragment, "LPM batch");
}

std::vector<uint8_t> EncodeDoneMarker(uint32_t num_messages) {
  std::vector<uint8_t> out;
  WireWriter w(&out);
  w.U32(num_messages);
  return out;
}

Result<uint32_t> DecodeDoneMarker(const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  uint32_t count = r.U32();
  if (!r.ok() || !r.AtEnd()) return Truncated("done marker");
  return count;
}

}  // namespace gstored
